//! Independent reference answers and the answer checker.
//!
//! Every count/sum the engine returns is compared against a model that
//! shares no code with it: a sorted copy with prefix sums for read-only
//! columns, plus a brute-force list of values appended afterwards, and a
//! multiset (value → multiplicity) for a column under inserts and
//! deletes. Checks run outside every timed region.

use std::collections::BTreeMap;

/// A count/sum answer.
pub type Answer = (u64, i128);

/// A model of one column's contents.
pub trait Model {
    /// Rows the column holds.
    fn len(&self) -> usize;
    /// Count and sum of the values in `[lo, hi)`.
    fn answer(&self, lo: i64, hi: i64) -> Answer;
}

/// Sorted values with prefix sums: `answer` is two binary searches.
pub struct SortedReference {
    sorted: Vec<i64>,
    prefix: Vec<i128>,
}

impl SortedReference {
    pub fn new(values: &[i64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        let mut acc = 0i128;
        prefix.push(acc);
        for &v in &sorted {
            acc += i128::from(v);
            prefix.push(acc);
        }
        SortedReference { sorted, prefix }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Count and sum of the values in `[lo, hi)`.
    pub fn answer(&self, lo: i64, hi: i64) -> Answer {
        let a = self.sorted.partition_point(|&v| v < lo);
        let b = self.sorted.partition_point(|&v| v < hi).max(a);
        ((b - a) as u64, self.prefix[b] - self.prefix[a])
    }
}

/// A read-mostly column: its initial values plus values appended later.
pub struct AppendedColumn {
    pub base: SortedReference,
    pub appended: Vec<i64>,
}

impl AppendedColumn {
    pub fn new(values: &[i64]) -> Self {
        AppendedColumn {
            base: SortedReference::new(values),
            appended: Vec::new(),
        }
    }
}

impl Model for AppendedColumn {
    fn len(&self) -> usize {
        self.base.len() + self.appended.len()
    }

    fn answer(&self, lo: i64, hi: i64) -> Answer {
        let (mut count, mut sum) = self.base.answer(lo, hi);
        for &v in self.appended.iter().filter(|&&v| v >= lo && v < hi) {
            count += 1;
            sum += i128::from(v);
        }
        (count, sum)
    }
}

/// A multiset of values, with an unordered list of live values so that a
/// delete can pick a value known to be present.
pub struct Multiset {
    counts: BTreeMap<i64, u64>,
    live: Vec<i64>,
}

impl Multiset {
    pub fn new(values: &[i64]) -> Self {
        let mut counts = BTreeMap::new();
        for &v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        Multiset {
            counts,
            live: values.to_vec(),
        }
    }

    pub fn insert(&mut self, v: i64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.live.push(v);
    }

    /// Removes and returns the live value at `index % len`.
    pub fn remove_at(&mut self, index: usize) -> i64 {
        let v = self.live.swap_remove(index % self.live.len());
        let count = self.counts.get_mut(&v).expect("live value has a count");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&v);
        }
        v
    }
}

impl Model for Multiset {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn answer(&self, lo: i64, hi: i64) -> Answer {
        if hi <= lo {
            return (0, 0);
        }
        self.counts.range(lo..hi).fold((0, 0), |(c, s), (&v, &n)| {
            (c + n, s + i128::from(v) * i128::from(n))
        })
    }
}

/// Counts attempted operations, failed ones, checked answers and
/// mismatches. A wrong answer, a shed or a refusal is a failed operation.
#[derive(Debug, Default)]
pub struct Verifier {
    pub attempted: u64,
    failed: u64,
    pub checked: u64,
    pub mismatches: u64,
    /// Self-test hook: corrupt the first expected answer, so the run must
    /// report the mismatch.
    corrupt_first: bool,
}

impl Verifier {
    pub fn new(corrupt_first: bool) -> Self {
        Verifier {
            corrupt_first,
            ..Verifier::default()
        }
    }

    /// Records one operation that returned an error or was shed.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED {why}");
        }
    }

    /// Failed operations: errors, sheds and wrong answers.
    pub fn failed(&self) -> u64 {
        self.failed + self.mismatches
    }

    /// Compares one answer; returns whether it matched.
    pub fn check(&mut self, what: &str, mut expected: Answer, got: Answer) -> bool {
        if self.corrupt_first && self.checked == 0 {
            expected.0 += 1;
        }
        self.checked += 1;
        if expected == got {
            return true;
        }
        self.mismatches += 1;
        if self.mismatches <= 5 {
            eprintln!("WRONG ANSWER {what}: expected {expected:?}, got {got:?}");
        }
        false
    }

    pub fn check_len(&mut self, what: &str, expected: usize, got: usize) -> bool {
        self.check(what, (expected as u64, 0), (got as u64, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_agree_with_brute_force() {
        let values = [5, 1, 9, 5, 3, 7, 5];
        let brute = |vs: &[i64], lo: i64, hi: i64| {
            vs.iter()
                .filter(|&&v| v >= lo && v < hi)
                .fold((0u64, 0i128), |(c, s), &v| (c + 1, s + i128::from(v)))
        };
        let sorted = SortedReference::new(&values);
        let mut multiset = Multiset::new(&values);
        for (lo, hi) in [(0, 10), (5, 6), (2, 8), (9, 9), (8, 2)] {
            assert_eq!(sorted.answer(lo, hi), brute(&values, lo, hi));
            assert_eq!(multiset.answer(lo, hi), brute(&values, lo, hi));
        }
        multiset.insert(4);
        let removed = multiset.remove_at(0);
        let mut now = values.to_vec();
        now.push(4);
        let pos = now.iter().position(|&v| v == removed).unwrap();
        now.remove(pos);
        assert_eq!(multiset.answer(0, 10), brute(&now, 0, 10));
        assert_eq!(multiset.len(), now.len());
    }

    #[test]
    fn corrupt_first_fails_exactly_one_check() {
        let mut v = Verifier::new(true);
        assert!(!v.check("q0", (1, 1), (1, 1)));
        assert!(v.check("q1", (1, 1), (1, 1)));
        assert_eq!((v.checked, v.mismatches), (2, 1));
    }
}
