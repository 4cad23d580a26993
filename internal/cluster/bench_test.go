package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkClusterHandoff measures one full handoff round trip —
// export (pause, checkpoint, detach), wire transfer, import (append,
// resume), route flip, purge — by ping-ponging a live Kalman session
// between two nodes.
func BenchmarkClusterHandoff(b *testing.B) {
	n1 := startTestNode(b, "n1", 4)
	n2 := startTestNode(b, "n2", 4)
	nodes := map[string]*Node{"n1": n1, "n2": n2}
	r := NewRouter(RouterConfig{Policy: fastPolicy()})
	defer r.Close()
	for _, n := range nodes {
		if err := r.Join(n.Info()); err != nil {
			b.Fatal(err)
		}
	}
	const target = "bench-tag"
	if err := r.Track(target); err != nil {
		b.Fatal(err)
	}
	cur, _, _ := r.NodeOf(target)
	if err := nodes[cur].Pump(10); err != nil { // warm filter + durable state
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := "n1"
		if cur == "n1" {
			next = "n2"
		}
		if err := r.Move(target, next); err != nil {
			b.Fatal(err)
		}
		cur = next
	}
}

// BenchmarkClusterSessions measures a 3-node cluster tracking 60
// Kalman sessions — the steady-state cost of the session tier. An op
// is one whole cycle of cycleRounds pump rounds: a checkpoint runs
// every 4th round and a journal switches segments every 8th append, so
// every op does the same work, and rounds/op lets a gate divide
// allocs/op down to one round. One cycle runs before the timer, so
// every session has had its first fix, checkpoint and segment switch
// (which create its two segment files): counted in the timed run, those
// would move allocs/op with b.N.
func BenchmarkClusterSessions(b *testing.B) {
	const cycleRounds = 32
	ids := []string{"n1", "n2", "n3"}
	nodes := make([]*Node, 0, len(ids))
	r := NewRouter(RouterConfig{Policy: fastPolicy()})
	defer r.Close()
	for _, id := range ids {
		n := startTestNode(b, id, 4)
		nodes = append(nodes, n)
		if err := r.Join(n.Info()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := r.Track(fmt.Sprintf("tag-%02d", i)); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.Pump(cycleRounds); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			if err := n.Pump(cycleRounds); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(cycleRounds, "rounds/op")
}
