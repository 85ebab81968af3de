// srclint-fixture: path=crates/predindex/src/sharded.rs
// The sharded leaf grows back a stats call, a shard-count knob and the
// lock-wait span they fed.

pub struct ShardedPredicateIndex;

impl ShardedPredicateIndex {
    pub fn with_shards(n: usize) -> Self {
        let _ = n;
        ShardedPredicateIndex
    }

    pub fn shard_stats(&self) -> Vec<u64> {
        let _span = "shard_lock";
        Vec::new()
    }
}
