//! The two-level input/output buffering of §3.3.
//!
//! Each bank has a ping-pong input buffer (one page fills from DMA while
//! the other drains into the arrays) and a ping-pong output buffer; each
//! array has small input/output FIFOs that decouple it from the bank when
//! NBVA stalls desynchronize the arrays.

use std::collections::VecDeque;

/// A bounded FIFO.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fifo<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> Fifo<T> {
    /// Creates an empty FIFO with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Fifo<T> {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Fifo {
            capacity,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO is full.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Enqueues an item; returns it back on overflow (caller must stall).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }
}

/// A ping-pong (double) buffer: the *fill* page accepts writes while the
/// *drain* page serves reads; [`PingPong::swap`] exchanges them when the
/// drain page empties (hiding DMA latency, §3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PingPong<T> {
    page_capacity: usize,
    fill: VecDeque<T>,
    drain: VecDeque<T>,
}

impl<T> PingPong<T> {
    /// Creates an empty ping-pong buffer with `page_capacity` entries per
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if `page_capacity` is zero.
    pub fn new(page_capacity: usize) -> PingPong<T> {
        assert!(page_capacity > 0, "page capacity must be positive");
        PingPong {
            page_capacity,
            fill: VecDeque::with_capacity(page_capacity),
            drain: VecDeque::with_capacity(page_capacity),
        }
    }

    /// Entries per page.
    pub fn page_capacity(&self) -> usize {
        self.page_capacity
    }

    /// Writes into the fill page; returns the item on overflow.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.fill.len() == self.page_capacity {
            Err(item)
        } else {
            self.fill.push_back(item);
            Ok(())
        }
    }

    /// Reads from the drain page, swapping pages first if the drain page is
    /// exhausted.
    pub fn pop(&mut self) -> Option<T> {
        if self.drain.is_empty() {
            self.swap();
        }
        self.drain.pop_front()
    }

    /// Exchanges the fill and drain pages.
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.fill, &mut self.drain);
    }

    /// Total buffered items across both pages.
    pub fn len(&self) -> usize {
        self.fill.len() + self.drain.len()
    }

    /// Whether both pages are empty.
    pub fn is_empty(&self) -> bool {
        self.fill.is_empty() && self.drain.is_empty()
    }

    /// Whether the fill page is full (producer must stall until a swap).
    pub fn fill_full(&self) -> bool {
        self.fill.len() == self.page_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let mut f = Fifo::new(2);
        assert!(f.push(1).is_ok());
        assert!(f.push(2).is_ok());
        assert_eq!(f.push(3), Err(3));
        assert!(f.is_full());
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.front(), Some(&2));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fifo_zero_capacity_rejected() {
        let _: Fifo<u8> = Fifo::new(0);
    }

    #[test]
    fn pingpong_swaps_when_drained() {
        let mut pp = PingPong::new(2);
        assert!(pp.push(1).is_ok());
        assert!(pp.push(2).is_ok());
        assert!(pp.fill_full());
        // First pop swaps pages, exposing 1 and 2; fill page is free again.
        assert_eq!(pp.pop(), Some(1));
        assert!(!pp.fill_full());
        assert!(pp.push(3).is_ok());
        assert_eq!(pp.pop(), Some(2));
        assert_eq!(pp.pop(), Some(3));
        assert_eq!(pp.pop(), None);
        assert!(pp.is_empty());
    }

    #[test]
    fn pingpong_overflow_reports_item() {
        let mut pp = PingPong::new(1);
        assert!(pp.push(1).is_ok());
        assert_eq!(pp.push(2), Err(2));
        assert_eq!(pp.len(), 1);
    }
}
