package vaq

import "repro/internal/shard"

// OverPartitions wraps a scatter-gather kernel built over arbitrary
// partitions as a ShardedEngine, so the external test package can put the
// same partitions behind both transports.
func OverPartitions(k *shard.Engine) *ShardedEngine {
	return &ShardedEngine{querier{k: k, flavor: flavorSharded}}
}

// PackedShards reports, for each shard of a local engine, whether its
// R-tree has been packed (core.Engine.IndexPacked).
func PackedShards(e *Engine) []bool {
	packed := make([]bool, e.k.NumShards())
	for si := range packed {
		packed[si] = e.k.ShardEngine(si).IndexPacked()
	}
	return packed
}
