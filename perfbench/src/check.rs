//! Output checkers. Every workload numbers its inputs, so correctness is
//! a check on sequence numbers: a value is accepted only if it is the
//! next one expected, which rejects a lost, duplicated, reordered or
//! corrupted value alike. Each rejection counts one failed operation.

/// Strict in-order, exactly-once acceptance of `0, 1, 2, ...`.
#[derive(Debug, Default)]
pub struct SeqCheck {
    next: u64,
    pub failed: u64,
}

impl SeqCheck {
    pub fn new(first: u64) -> SeqCheck {
        SeqCheck {
            next: first,
            failed: 0,
        }
    }

    /// The sequence number expected next.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Accepts `seq` if it is the next one expected and `intact` (its
    /// payload matched what the generator sent).
    pub fn observe(&mut self, seq: u64, intact: bool) -> bool {
        let ok = seq == self.next && intact;
        if !ok {
            self.failed += 1;
        }
        if seq >= self.next {
            self.next = seq + 1;
        }
        ok
    }

    /// Closes the stream after `end` values were sent; everything not
    /// yet seen counts as lost. Returns the failures so far.
    pub fn finish(&mut self, end: u64) -> u64 {
        if self.next < end {
            self.failed += end - self.next;
            self.next = end;
        }
        self.failed
    }
}

/// Feeds `seqs` through a [`SeqCheck`] and returns its failures.
pub fn failures_of(first: u64, seqs: &[u64], end: u64) -> u64 {
    let mut c = SeqCheck::new(first);
    for &s in seqs {
        c.observe(s, true);
    }
    c.finish(end)
}

/// The checker must reject tampered output: one dropped message, one
/// out-of-order pair, one duplicate. Returns a description of the first
/// case it wrongly accepts.
pub fn self_test() -> Result<(), String> {
    let good: Vec<u64> = (0..100).collect();
    let mut dropped = good.clone();
    dropped.remove(37);
    let mut swapped = good.clone();
    swapped.swap(10, 11);
    let mut duplicated = good.clone();
    duplicated.insert(50, 49);
    let mut truncated = good.clone();
    truncated.pop();
    if failures_of(0, &good, 100) != 0 {
        return Err("rejected an intact stream".into());
    }
    for (name, seqs) in [
        ("one dropped message", &dropped),
        ("one out-of-order message", &swapped),
        ("one duplicated message", &duplicated),
        ("a lost last message", &truncated),
    ] {
        if failures_of(0, seqs, 100) == 0 {
            return Err(format!("accepted a stream with {name}"));
        }
    }
    let mut c = SeqCheck::new(0);
    c.observe(0, true);
    c.observe(1, false);
    if c.finish(2) == 0 {
        return Err("accepted a corrupted payload".into());
    }
    Ok(())
}
