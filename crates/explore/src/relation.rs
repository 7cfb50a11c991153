//! A finite order stored as data: one down-set and one up-set bitset
//! per node, built once and read with word operations.

/// The order `leq` over nodes `0..n`, tabulated: row `b` of the
/// down-sets holds every `a ≤ b`, row `a` of the up-sets every `b ≥ a`,
/// each as `⌈n/64⌉` words. The diagonal is always set (a partial order
/// is reflexive), so a node's strict down-set is its row minus itself.
///
/// Building costs `n²` calls of `leq` and `2·n²` bits; every question
/// after that — is `a ≤ b`, how large is a down-set, which unknown
/// nodes lie below `i` — is a bit read, a popcount or a word-wise AND.
/// The lazy engine builds one per scope and drops it when the scope is
/// done, so the memory held is the largest scope's, not the space's.
#[derive(Debug)]
pub struct Relation {
    n: usize,
    words: usize,
    down: Vec<u64>,
    up: Vec<u64>,
}

impl Relation {
    /// Tabulates `leq` over `0..n`: each down-set row is assembled a
    /// word at a time, and the up-sets are its transpose, written once
    /// per related pair.
    pub fn new(n: usize, leq: impl Fn(usize, usize) -> bool) -> Relation {
        let words = n.div_ceil(64);
        let mut down = vec![0u64; n * words];
        for (b, row) in down.chunks_exact_mut(words.max(1)).take(n).enumerate() {
            for (w, word) in row.iter_mut().enumerate() {
                let base = w * 64;
                *word = (base..n.min(base + 64))
                    .rev()
                    .fold(0, |acc, a| acc << 1 | u64::from(leq(a, b)));
            }
            row[b / 64] |= 1 << (b % 64);
        }
        let mut up = vec![0u64; n * words];
        for b in 0..n {
            for a in ones(&down[b * words..(b + 1) * words]) {
                up[a * words + b / 64] |= 1 << (b % 64);
            }
        }
        Relation { n, words, down, up }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// `a ≤ b`.
    pub fn leq(&self, a: usize, b: usize) -> bool {
        self.down(b)[a / 64] >> (a % 64) & 1 == 1
    }

    /// Words per row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Every `a ≤ b`, `b` included.
    pub(crate) fn down(&self, b: usize) -> &[u64] {
        &self.down[b * self.words..(b + 1) * self.words]
    }

    /// Every `b ≥ a`, `a` included.
    pub(crate) fn up(&self, a: usize) -> &[u64] {
        &self.up[a * self.words..(a + 1) * self.words]
    }

    /// Number of nodes strictly below `b`.
    pub(crate) fn below(&self, b: usize) -> usize {
        self.down(b)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            - 1
    }
}

/// The positions of the set bits of `words`, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}
