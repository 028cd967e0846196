package vaq

import "repro/internal/shard"

// OverPartitions wraps a scatter-gather kernel built over arbitrary
// partitions as a ShardedEngine, so the external test package can put the
// same partitions behind both transports.
func OverPartitions(k *shard.Engine) *ShardedEngine {
	return &ShardedEngine{querier{k: k, flavor: flavorSharded}}
}
