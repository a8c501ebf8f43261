package main

import (
	"testing"

	"netclus/internal/server"
	"netclus/internal/shard"
)

type fakeEngine struct{ server.Engine }

func (fakeEngine) Epoch() uint64 { return 7 }

type fakeSharded struct{ fakeEngine }

func (fakeSharded) ShardStats() []shard.Stat { return make([]shard.Stat, 3) }

// The server type-asserts Epoch and ShardStats on its engine; the
// decorator must expose exactly what the engine it wraps exposes.
func TestWrapEngineForwardsOptionalInterfaces(t *testing.T) {
	single := wrapEngine(fakeEngine{}, &tracer{}, "")
	if _, ok := single.(shardStatser); ok {
		t.Error("single engine gained ShardStats through the decorator")
	}
	if ep, ok := single.(interface{ Epoch() uint64 }); !ok || ep.Epoch() != 7 {
		t.Error("Epoch not forwarded")
	}
	sharded := wrapEngine(fakeSharded{}, &tracer{}, "")
	ss, ok := sharded.(shardStatser)
	if !ok || len(ss.ShardStats()) != 3 {
		t.Error("ShardStats not forwarded")
	}
}
