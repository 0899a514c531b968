//! The registry of named, `Arc`-shared tables the service multiplexes
//! sessions over.
//!
//! Every table carries a *generation*: a monotonically increasing stamp
//! bumped each time a name is (re)loaded. A plan-cache lookup carries the
//! generation the request read, and each cached plan records the one it
//! was built at, so after a reload the next lookup of each query replaces
//! the plan prepared against the old snapshot; the reload itself neither
//! scans nor frees any plan.

use parking_lot::RwLock;
use scorpion_table::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A registered table snapshot.
#[derive(Clone)]
pub struct TableEntry {
    /// The shared, immutable data.
    pub table: Arc<Table>,
    /// Generation stamp of this snapshot.
    pub generation: u64,
}

/// Named `Arc<Table>` snapshots shared across all sessions and workers.
#[derive(Default)]
pub struct TableRegistry {
    tables: RwLock<HashMap<String, TableEntry>>,
    generation: AtomicU64,
}

impl TableRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TableRegistry::default()
    }

    /// Registers (or replaces) `name`, returning the new generation.
    pub fn insert(&self, name: impl Into<String>, table: impl Into<Arc<Table>>) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.tables.write().insert(name.into(), TableEntry { table: table.into(), generation });
        generation
    }

    /// The current snapshot of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<TableEntry> {
        self.tables.read().get(name).cloned()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    /// Snapshot of all entries as `(name, entry)`, sorted by name.
    pub fn list(&self) -> Vec<(String, TableEntry)> {
        let mut out: Vec<(String, TableEntry)> =
            self.tables.read().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_table::{Field, Schema, TableBuilder};

    fn tiny() -> Table {
        let schema = Schema::new(vec![Field::cont("x")]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![1.0.into()]).unwrap();
        b.build()
    }

    #[test]
    fn insert_bumps_generation_per_replacement() {
        let r = TableRegistry::new();
        let g1 = r.insert("a", tiny());
        let g2 = r.insert("b", tiny());
        let g3 = r.insert("a", tiny()); // replace
        assert!(g1 < g2 && g2 < g3);
        assert_eq!(r.get("a").unwrap().generation, g3);
        assert_eq!(r.len(), 2);
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn list_is_sorted() {
        let r = TableRegistry::new();
        r.insert("zeta", tiny());
        r.insert("alpha", tiny());
        let names: Vec<String> = r.list().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
