//! Request payloads and the fixed training corpus.
//!
//! Every seed serves the same model: the training corpus is fixed here.
//! The seed only chooses the held-out tables the requests carry. A
//! held-out column is kept only when its `(title, header, cells)` key —
//! the key the server's response cache hashes — has been seen neither in
//! the training corpus nor earlier in the stream, so the cache-miss
//! workloads can never hit. Keys are remembered as 64-bit hashes: a
//! collision can only make the stream skip a new column, never repeat
//! one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use explainti_api::{InterpretTableRequest, PredictRequest};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use explainti_table::Table;

/// Tables in the fixed training corpus.
pub const TRAIN_TABLES: usize = 200;
/// Seed of the fixed training corpus.
pub const TRAIN_SEED: u64 = 0x0007_ab1e_5eed;
/// Tables generated per held-out chunk.
const CHUNK_TABLES: usize = 64;
/// Seed of the fixed probe set: the same columns for every workload seed.
const PROBE_SEED: u64 = 0x009b_0be5;
/// Columns (tables) in the probe set.
const PROBES: usize = 8;

/// The fixed training corpus every workload builds its model from.
pub fn training_corpus() -> Dataset {
    generate_wiki(&WikiConfig { num_tables: TRAIN_TABLES, seed: TRAIN_SEED, ..Default::default() })
}

/// Hash of a column's response-cache identity.
fn key(title: &str, header: &str, cells: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    (title, header, cells).hash(&mut h);
    h.finish()
}

/// A seeded stream of held-out tables whose columns are pairwise
/// distinct and absent from the training corpus.
pub struct HeldOut {
    seed: u64,
    chunk: u64,
    seen: HashSet<u64>,
    pending: std::collections::VecDeque<Table>,
}

/// splitmix64 finaliser: decorrelates consecutive chunk seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl HeldOut {
    /// A stream for `seed`, disjoint from `training`.
    pub fn new(seed: u64, training: &Dataset) -> Self {
        Self {
            seed: mix(seed ^ 0x4e1d_0ff5),
            chunk: 0,
            seen: training
                .collection
                .tables
                .iter()
                .flat_map(|t| t.columns.iter().map(|c| key(&t.title, &c.header, &c.cells)))
                .collect(),
            pending: Default::default(),
        }
    }

    /// The next table all of whose columns are new, non-empty keys;
    /// its keys are marked seen.
    fn next_table(&mut self) -> Table {
        loop {
            if let Some(t) = self.pending.pop_front() {
                let keys: Vec<u64> =
                    t.columns.iter().map(|c| key(&t.title, &c.header, &c.cells)).collect();
                let distinct: HashSet<&u64> = keys.iter().collect();
                let fresh = !keys.is_empty()
                    && distinct.len() == keys.len()
                    && keys.iter().all(|k| !self.seen.contains(k))
                    && t.columns.iter().all(|c| !(c.header.is_empty() && c.cells.is_empty()));
                if fresh {
                    self.seen.extend(keys);
                    return t;
                }
                continue;
            }
            let d = generate_wiki(&WikiConfig {
                num_tables: CHUNK_TABLES,
                seed: mix(self.seed.wrapping_add(self.chunk)),
                ..Default::default()
            });
            self.chunk += 1;
            self.pending.extend(d.collection.tables);
        }
    }

    /// The next `n` single-column requests.
    pub fn columns(&mut self, n: usize) -> Vec<PredictRequest> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let t = self.next_table();
            for c in t.columns {
                if out.len() == n {
                    // Keys of unused columns stay marked seen; they are
                    // simply never sent.
                    break;
                }
                out.push(PredictRequest {
                    title: t.title.clone(),
                    header: c.header,
                    cells: c.cells,
                });
            }
        }
        out
    }

    /// The next `n` whole-table requests.
    pub fn tables(&mut self, n: usize) -> Vec<InterpretTableRequest> {
        (0..n).map(|_| InterpretTableRequest::from_table(&self.next_table())).collect()
    }
}

/// The fixed probe columns.
pub fn probe_columns() -> Vec<PredictRequest> {
    HeldOut::new(PROBE_SEED, &training_corpus()).columns(PROBES)
}

/// The fixed probe tables.
pub fn probe_tables() -> Vec<InterpretTableRequest> {
    HeldOut::new(PROBE_SEED, &training_corpus()).tables(PROBES)
}

/// JSON body of a single-column request.
pub fn column_body(r: &PredictRequest) -> Vec<u8> {
    serde_json::to_string(r).expect("request DTOs serialise").into_bytes()
}

/// JSON body of a whole-table request.
pub fn table_body(r: &InterpretTableRequest) -> Vec<u8> {
    serde_json::to_string(r).expect("request DTOs serialise").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    type ColumnKey = (String, String, Vec<String>);

    fn key(r: &PredictRequest) -> ColumnKey {
        (r.title.clone(), r.header.clone(), r.cells.clone())
    }

    fn corpus_keys(d: &Dataset) -> HashSet<ColumnKey> {
        let mut keys = HashSet::new();
        for t in &d.collection.tables {
            for c in &t.columns {
                keys.insert((t.title.clone(), c.header.clone(), c.cells.clone()));
            }
        }
        keys
    }

    #[test]
    fn miss_columns_are_distinct_and_disjoint_from_training() {
        let training = training_corpus();
        let train_keys = corpus_keys(&training);
        for seed in [0, 1, 7, TRAIN_SEED, u64::MAX] {
            let mut h = HeldOut::new(seed, &training);
            let cols = h.columns(600);
            let keys: HashSet<ColumnKey> = cols.iter().map(key).collect();
            assert_eq!(keys.len(), cols.len(), "seed {seed}: duplicate column");
            assert!(keys.is_disjoint(&train_keys), "seed {seed}: column from training corpus");
        }
    }

    #[test]
    fn table_columns_are_distinct_and_disjoint_from_training() {
        let training = training_corpus();
        let train_keys = corpus_keys(&training);
        for seed in [3, 11] {
            let mut h = HeldOut::new(seed, &training);
            let mut keys = HashSet::new();
            let mut total = 0;
            for t in h.tables(150) {
                for i in 0..t.columns.len() {
                    keys.insert(key(&t.column_request(i)));
                    total += 1;
                }
            }
            assert_eq!(keys.len(), total, "seed {seed}: duplicate column across tables");
            assert!(keys.is_disjoint(&train_keys));
        }
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        let training = training_corpus();
        let mut a = HeldOut::new(42, &training);
        let mut b = HeldOut::new(42, &training);
        let ca: Vec<Vec<u8>> = a.columns(200).iter().map(column_body).collect();
        let cb: Vec<Vec<u8>> = b.columns(200).iter().map(column_body).collect();
        assert_eq!(ca, cb);
        let ta: Vec<Vec<u8>> = a.tables(20).iter().map(table_body).collect();
        let tb: Vec<Vec<u8>> = b.tables(20).iter().map(table_body).collect();
        assert_eq!(ta, tb);
        let mut c = HeldOut::new(43, &training);
        assert_ne!(ca, c.columns(200).iter().map(column_body).collect::<Vec<_>>());
    }
}
