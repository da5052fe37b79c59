//! The sharded scan service: registration through the pipeline's admit
//! stage, admission groups, and certified backpressure.
//!
//! A shard is an admission group: it owns one certified [`ComposedPlan`]
//! covering its resident tenants, and no thread. Registration re-runs
//! admission over the residents plus the newcomer (warm-started from the
//! pipeline's plan cache, so a pattern set the server has already
//! planned performs zero compile-stage work); a refusal leaves the
//! previous composition untouched. The
//! composition fixes the shard's budgets and is what hot-swap analysis
//! edits; it is never re-simulated. Admission certifies that each
//! tenant's matches equal its solo run, so [`Session::send`] steps only
//! the chunk through the session's own [`rap_sim::StreamState`] over the
//! tenant's solo plan, on the caller's thread.

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rap_admit::{AdmissionAnalysis, AdmitOptions, ComposedPlan};
use rap_bound::BoundOptions;
use rap_diag::Location;
use rap_pipeline::{PatternSet, Pipeline};
use rap_sim::Simulator;
use rap_telemetry::Telemetry;

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::rules::{Report, Rule, FINDINGS_RETAINED};
use crate::session::Session;

/// A service failure surfaced to the caller.
#[derive(Debug)]
pub enum ServeError {
    /// The admission analyzer refused the proposed composition; the
    /// analysis carries the refusing S-rule findings.
    Rejected(Box<AdmissionAnalysis>),
    /// The hot-swap analyzer refused the proposed replacement; the
    /// analysis carries the refusing Q-rule findings. The outgoing
    /// session is untouched.
    SwapRejected(Box<rap_swap::SwapAnalysis>),
    /// A tenant with this name is already resident.
    DuplicateTenant(String),
    /// The session was already finished or drained.
    SessionClosed,
    /// A pipeline stage failed while building the tenant's plan.
    Pipeline(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(analysis) => write!(
                f,
                "admission rejected the composition ({} finding(s))",
                analysis.report.len()
            ),
            ServeError::SwapRejected(analysis) => write!(
                f,
                "hot swap rejected ({} finding(s))",
                analysis.report.len()
            ),
            ServeError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServeError::SessionClosed => write!(f, "session already finished"),
            ServeError::Pipeline(message) => write!(f, "pipeline failure: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One shard's current certified composition and its derived budgets.
pub(crate) struct Tenancy {
    /// The admitted composition: the resident footprint hot-swap
    /// analysis edits.
    pub composed: ComposedPlan,
    /// Per-session intake budget in bytes: `queue_pages` ping-pong bank
    /// input windows per fabric bank.
    pub input_budget: u64,
    /// Per-session event-queue budget in records: `queue_pages` times
    /// the B002 worst-case output-records occupancy.
    pub events_budget: u64,
    /// Banks in the certified fabric — the geometry hot-swap analysis
    /// must be pinned to (a swap may not grow the scanning fabric).
    pub banks: u32,
}

/// A tenant resident on a shard (control-plane view).
pub(crate) struct ResidentTenant {
    pub name: String,
    pub patterns: PatternSet,
}

/// The control-plane state of one shard, guarded by its mutex.
pub(crate) struct Residency {
    pub tenants: Vec<ResidentTenant>,
    pub tenancy: Option<Arc<Tenancy>>,
}

/// One shard: an admission group of tenants sharing one certified
/// composition.
pub(crate) struct Shard {
    pub id: usize,
    pub residency: Mutex<Residency>,
}

impl Shard {
    fn new(id: usize) -> Shard {
        Shard {
            id,
            residency: Mutex::new(Residency {
                tenants: Vec::new(),
                tenancy: None,
            }),
        }
    }

    /// Snapshot of the current certified tenancy (momentary lock).
    pub fn tenancy(&self) -> Option<Arc<Tenancy>> {
        self.residency
            .lock()
            .expect("shard residency poisoned")
            .tenancy
            .clone()
    }
}

/// State shared between the server handle and its sessions.
pub(crate) struct Shared {
    pub pipeline: Arc<Pipeline>,
    pub config: ServeConfig,
    pub telemetry: Arc<Telemetry>,
    pub metrics: ServeMetrics,
    /// The newest [`FINDINGS_RETAINED`] findings.
    pub findings: Mutex<Report>,
    pub shards: Vec<Arc<Shard>>,
    pub active: AtomicU64,
    /// Serializes registrations so duplicate-name checks and shard
    /// selection never need to hold two residency locks at once.
    registration: Mutex<()>,
}

impl Shared {
    pub fn finding(&self, rule: Rule, message: String) {
        let mut findings = self.findings.lock().expect("findings lock poisoned");
        if findings.len() == FINDINGS_RETAINED {
            findings.diagnostics.remove(0);
            self.metrics.findings_dropped.inc();
        }
        findings.push(rule, rule.severity(), Location::default(), message);
    }

    fn simulator(&self) -> Simulator {
        Simulator::new(self.config.machine)
    }

    /// The least-loaded shard by resident tenant count, ties broken
    /// deterministically toward the lowest shard id (so identical
    /// registration sequences always produce identical placements).
    fn shard_for_new_session(&self) -> Arc<Shard> {
        Arc::clone(
            self.shards
                .iter()
                .min_by_key(|shard| {
                    let residents = shard
                        .residency
                        .lock()
                        .expect("shard residency poisoned")
                        .tenants
                        .len();
                    (residents, shard.id)
                })
                .expect("server has at least one shard"),
        )
    }

    /// Re-runs admission over a shard's residents. Replaces the tenancy
    /// only on success; a refusal or stage failure leaves the previous
    /// certified composition untouched. Running sessions never see it:
    /// each steps its own solo plan.
    fn recompose(&self, residency: &mut Residency) -> Result<(), ServeError> {
        if residency.tenants.is_empty() {
            residency.tenancy = None;
            return Ok(());
        }
        let sim = self.simulator();
        let tenants: Vec<(&str, &Simulator, &PatternSet)> = residency
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), &sim, &t.patterns))
            .collect();
        // The certificate alone: the service never executes the composed
        // plan, so none is assembled or cached.
        let mut analysis = self
            .pipeline
            .admit_analysis(&tenants, &AdmitOptions::default())
            .map_err(|e| ServeError::Pipeline(e.to_string()))?;
        let Some(composed) = analysis.composed.take() else {
            return Err(ServeError::Rejected(Box::new(analysis)));
        };
        // Certified budgets, not ad-hoc constants: the intake side is
        // sized in ping-pong bank input windows (§3.3 geometry), the
        // event side in B002 worst-case output-records occupancy.
        let patterns: Vec<rap_regex::Pattern> = composed
            .tenants
            .iter()
            .flat_map(|summary| {
                residency
                    .tenants
                    .iter()
                    .find(|t| t.name == summary.name)
                    .expect("composed tenant is resident")
                    .patterns
                    .parsed()
                    .iter()
                    .cloned()
            })
            .collect();
        let bounds = rap_bound::analyze_bounds(
            &composed.images,
            &patterns,
            &composed.mapping,
            &BoundOptions::bounds_only(),
        );
        let window = 2 * u64::from(composed.mapping.config.arch.bank_input_entries);
        let input_budget = (self.config.queue_pages * u64::from(analysis.banks) * window).max(1);
        let events_budget = (self.config.queue_pages * bounds.bank.output_fifo_records).max(1);
        residency.tenancy = Some(Arc::new(Tenancy {
            composed,
            input_budget,
            events_budget,
            banks: analysis.banks,
        }));
        Ok(())
    }

    /// Whether any shard hosts a tenant under `name` (momentary
    /// single-shard locks; callers must not hold a residency lock).
    fn name_taken(&self, name: &str) -> bool {
        self.shards.iter().any(|shard| {
            shard
                .residency
                .lock()
                .expect("shard residency poisoned")
                .tenants
                .iter()
                .any(|t| t.name == name)
        })
    }

    /// Registers a tenant on the least-loaded shard.
    pub(crate) fn register(
        self: &Arc<Shared>,
        name: &str,
        patterns: &PatternSet,
    ) -> Result<Session, ServeError> {
        let start = Instant::now();
        if patterns.is_empty() {
            self.metrics.sessions_rejected.inc();
            return Err(ServeError::Pipeline("empty pattern set".to_string()));
        }
        let _serial = self
            .registration
            .lock()
            .expect("registration lock poisoned");
        if self.name_taken(name) {
            self.metrics.sessions_rejected.inc();
            return Err(ServeError::DuplicateTenant(name.to_string()));
        }
        let shard = self.shard_for_new_session();
        self.register_on_shard(name, patterns, &shard, start)
    }

    /// Registration core: admits `name` onto `shard` and builds its
    /// session. The caller holds the registration lock and has already
    /// checked for duplicate names.
    fn register_on_shard(
        self: &Arc<Shared>,
        name: &str,
        patterns: &PatternSet,
        shard: &Arc<Shard>,
        start: Instant,
    ) -> Result<Session, ServeError> {
        let resident_count = {
            let mut residency = shard.residency.lock().expect("shard residency poisoned");
            residency.tenants.push(ResidentTenant {
                name: name.to_string(),
                patterns: patterns.clone(),
            });
            if let Err(error) = self.recompose(&mut residency) {
                residency.tenants.pop();
                self.metrics.sessions_rejected.inc();
                if let ServeError::Rejected(analysis) = &error {
                    self.finding(
                        Rule::AdmissionRejected,
                        format!(
                            "tenant {name:?} refused on shard {}: {} error finding(s)",
                            shard.id,
                            analysis.report.errors().count()
                        ),
                    );
                }
                return Err(error);
            }
            residency.tenants.len()
        };
        // The solo plan the session steps (cache-shared with the
        // admission run above).
        let sim = self.simulator();
        let solo = self
            .pipeline
            .plan(&sim, patterns, None)
            .map_err(|e| ServeError::Pipeline(e.to_string()))?;
        let session = Session::new(name, Arc::clone(shard), solo, Arc::clone(self));
        self.metrics.sessions_admitted.inc();
        let active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.sessions_active.set(active);
        self.metrics
            .shard_sessions(shard.id)
            .set(resident_count as u64);
        self.metrics
            .register_ns
            .record(start.elapsed().as_nanos() as u64);
        Ok(session)
    }

    /// Hot-swaps a resident tenant: statically certifies replacing the
    /// `outgoing` session's tenant with `name`/`patterns` on the same
    /// shard (Q001–Q008), then — only if certified — drains the
    /// outgoing session and registers the replacement into the freed
    /// footprint. Every other session keeps scanning throughout; a
    /// refusal leaves the outgoing session untouched and streaming.
    pub(crate) fn swap_tenant(
        self: &Arc<Shared>,
        outgoing: &Session,
        name: &str,
        patterns: &PatternSet,
    ) -> Result<(Session, Box<rap_swap::ReconfigPlan>), ServeError> {
        let start = Instant::now();
        if patterns.is_empty() {
            self.metrics.swaps_rejected.inc();
            return Err(ServeError::Pipeline("empty pattern set".to_string()));
        }
        let _serial = self
            .registration
            .lock()
            .expect("registration lock poisoned");
        if self.name_taken(name) {
            self.metrics.swaps_rejected.inc();
            return Err(ServeError::DuplicateTenant(name.to_string()));
        }
        let shard = Arc::clone(&outgoing.shard);
        let outgoing_name = outgoing.tenant().to_string();
        let Some(tenancy) = shard.tenancy() else {
            self.metrics.swaps_rejected.inc();
            return Err(ServeError::Pipeline(
                "shard has no certified composition".to_string(),
            ));
        };
        // Static safety analysis first — no state is mutated until the
        // certificate is in hand.
        let sim = self.simulator();
        let solo = self
            .pipeline
            .plan(&sim, patterns, None)
            .map_err(|e| ServeError::Pipeline(e.to_string()))?;
        let incoming = rap_swap::Tenant {
            name,
            images: solo.compiled().images(),
            patterns: patterns.parsed(),
            mapping: solo.mapping(),
            match_base: None,
            slot: None,
        };
        let arch = tenancy.composed.mapping.config.arch;
        let analysis = rap_swap::analyze_swap(
            &tenancy.composed,
            &outgoing_name,
            &incoming,
            &arch,
            &rap_swap::SwapOptions {
                banks: Some(tenancy.banks),
                bv_column_budget: None,
            },
        );
        let Some(plan) = analysis.plan.clone() else {
            self.metrics.swaps_rejected.inc();
            self.finding(
                Rule::AdmissionRejected,
                format!(
                    "hot swap {outgoing_name:?} -> {name:?} refused on shard {}: {} error finding(s)",
                    shard.id,
                    analysis.report.errors().count()
                ),
            );
            self.metrics
                .swap_ns
                .record(start.elapsed().as_nanos() as u64);
            return Err(ServeError::SwapRejected(Box::new(analysis)));
        };
        // Spend the certificate: drain ONLY the outgoing session (its
        // final scan covers every accepted byte, bounded by the
        // certified drain window), then attach the replacement to the
        // freed footprint. Staying sessions never stop scanning.
        outgoing.finish();
        let session = self.register_on_shard(name, patterns, &shard, Instant::now())?;
        self.metrics.swaps_completed.inc();
        self.metrics
            .swap_ns
            .record(start.elapsed().as_nanos() as u64);
        self.finding(
            Rule::TenantSwapped,
            format!(
                "tenant {outgoing_name:?} hot-swapped for {name:?} on shard {} \
                 (certified drain bound {} cycle(s), reconfig {} cycle(s))",
                shard.id, plan.drain.cycles, plan.cost.cycles
            ),
        );
        Ok((session, Box::new(plan)))
    }

    /// Releases a finished session's slot and recomposes the remainder.
    /// The finishing session calls it before `finish` returns, so its
    /// producer can immediately re-register the name.
    pub(crate) fn release(&self, shard: &Shard, name: &str) {
        let remaining = {
            let mut residency = shard.residency.lock().expect("shard residency poisoned");
            residency.tenants.retain(|t| t.name != name);
            if let Err(error) = self.recompose(&mut residency) {
                // Keep the departing composition (and its budgets); the
                // departed tenant's arrays just idle.
                self.finding(
                    Rule::AdmissionRejected,
                    format!(
                        "recomposition after tenant {name:?} drained failed on shard {}: {error}",
                        shard.id
                    ),
                );
            }
            residency.tenants.len()
        };
        let active = self.active.fetch_sub(1, Ordering::Relaxed) - 1;
        self.metrics.sessions_active.set(active);
        self.metrics.shard_sessions(shard.id).set(remaining as u64);
        self.finding(
            Rule::SessionDrained,
            format!("tenant {name:?} drained gracefully from shard {}", shard.id),
        );
    }
}

/// The multi-tenant streaming scan service.
///
/// In-process producers use [`Server::register`] and the returned
/// [`Session`]; network producers use [`Server::listen`] and the framed
/// protocol in the `net` module. Each session scans on the thread that
/// calls it; the only threads the server spawns are the TCP acceptor and
/// one per connection. Dropping the server stops the acceptor; sessions
/// it handed out keep working until they finish.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    stop_accepting: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl Server {
    /// Builds the service over `pipeline` with `config.shards` empty
    /// admission groups; spawns no thread. The pipeline's attached
    /// telemetry (or a fresh default) becomes the ops surface.
    pub fn new(pipeline: Pipeline, config: ServeConfig) -> Server {
        let telemetry = pipeline
            .telemetry()
            .map_or_else(|| Arc::new(Telemetry::default()), Arc::clone);
        let metrics = ServeMetrics::on(telemetry.registry());
        let shards: Vec<Arc<Shard>> = (0..config.shards.max(1))
            .map(|id| Arc::new(Shard::new(id)))
            .collect();
        let shared = Arc::new(Shared {
            pipeline: Arc::new(pipeline),
            config,
            telemetry,
            findings: Mutex::new(Report::default()),
            metrics,
            shards,
            active: AtomicU64::new(0),
            registration: Mutex::new(()),
        });
        Server {
            shared,
            acceptor: None,
            stop_accepting: Arc::new(AtomicBool::new(false)),
            addr: None,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The pipeline backing registrations.
    pub fn pipeline(&self) -> &Pipeline {
        &self.shared.pipeline
    }

    /// The telemetry hub carrying the `rap_serve_*` registry cells.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Handles to the service's registry cells.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Snapshot of the newest 1024 R-rule findings; older ones are
    /// counted in `rap_serve_findings_dropped_total`.
    pub fn findings(&self) -> Report {
        self.shared
            .findings
            .lock()
            .expect("findings lock poisoned")
            .clone()
    }

    /// Sessions currently registered.
    pub fn active_sessions(&self) -> u64 {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Renders the full registry in Prometheus exposition format.
    pub fn prometheus(&self) -> String {
        self.shared.telemetry.prometheus()
    }

    /// Registers a tenant and returns its streaming session.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when admission cannot certify the
    /// composition, [`ServeError::DuplicateTenant`] on a name clash,
    /// [`ServeError::Pipeline`] when a stage fails.
    pub fn register(&self, name: &str, patterns: &PatternSet) -> Result<Session, ServeError> {
        self.shared.register(name, patterns)
    }

    /// Hot-swaps a resident tenant: statically certifies replacing the
    /// `outgoing` session's tenant with the `name`/`patterns`
    /// replacement on the same shard, and only then drains the outgoing
    /// session (within its certified drain bound) and registers the
    /// replacement into the freed footprint. Every other session keeps
    /// scanning throughout. Returns the replacement's session and the
    /// certified [`rap_swap::ReconfigPlan`].
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapRejected`] with the Q-rule findings when the
    /// swap cannot be certified (the outgoing session is untouched),
    /// [`ServeError::DuplicateTenant`] on a name clash,
    /// [`ServeError::Pipeline`] when a stage fails.
    pub fn swap_tenant(
        &self,
        outgoing: &Session,
        name: &str,
        patterns: &PatternSet,
    ) -> Result<(Session, Box<rap_swap::ReconfigPlan>), ServeError> {
        self.shared.swap_tenant(outgoing, name, patterns)
    }

    /// Parses `sources` and registers the tenant.
    ///
    /// # Errors
    ///
    /// As [`Server::register`], plus [`ServeError::Pipeline`] on parse
    /// failure.
    pub fn register_sources(&self, name: &str, sources: &[String]) -> Result<Session, ServeError> {
        let patterns =
            PatternSet::parse(sources).map_err(|e| ServeError::Pipeline(e.to_string()))?;
        self.register(name, &patterns)
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting framed
    /// protocol connections; returns the bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let (handle, local) = crate::net::spawn_acceptor(
            Arc::clone(&self.shared),
            Arc::clone(&self.stop_accepting),
            addr,
        )?;
        self.acceptor = Some(handle);
        self.addr = Some(local);
        Ok(local)
    }

    /// The bound listen address, when [`Server::listen`] was called.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stops accepting connections and joins the acceptor. Connections
    /// already open keep being served, and each drains its session when
    /// it closes. Called automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        self.stop_accepting.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_pipeline::BenchConfig;

    #[test]
    fn findings_log_keeps_the_newest_and_counts_the_rest() {
        let server = Server::new(
            Pipeline::new(BenchConfig::default()),
            ServeConfig::default(),
        );
        let extra = 5;
        for i in 0..FINDINGS_RETAINED + extra {
            server.shared.finding(Rule::SessionDrained, format!("#{i}"));
        }
        let findings = server.findings();
        assert_eq!(findings.len(), FINDINGS_RETAINED);
        assert_eq!(server.metrics().findings_dropped.get(), extra as u64);
        assert_eq!(findings.diagnostics[0].message, format!("#{extra}"));
    }
}
