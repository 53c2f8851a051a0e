package storage

import "shareddb/internal/types"

// ShardInfo identifies one hash partition of a sharded deployment: shard
// Index of Count total shards. The zero value (Count 0) means unsharded.
// The info is metadata only — the storage manager itself is shard-agnostic;
// the router (internal/shard) decides which rows land here.
type ShardInfo struct {
	Index int
	Count int
}

// Partitioning is the hash router over primary keys: a table's row belongs
// to shard ShardOf(pk values) of Shards. Hashing goes through the codec's
// coercion-consistent key hash (types.KeyHash), so a row inserted with
// pk=1 and a lookup with pk=1.0 resolve to the same shard.
type Partitioning struct {
	Shards int
}

// ShardOf returns the owning shard of a primary key.
func (p Partitioning) ShardOf(key ...types.Value) int {
	if p.Shards <= 1 {
		return 0
	}
	return int(types.KeyHash(key...) % uint64(p.Shards))
}

// OpApplier is the write-batch sink shared by the storage manager and the
// shard router: Database implements it directly; the router implements it
// by routing each op to the owning partition. Bulk loaders (the TPC-W data
// generator) target this interface so the same load path fills unsharded
// and sharded deployments.
type OpApplier interface {
	ApplyOps(ops []WriteOp) ([]OpResult, uint64)
}
