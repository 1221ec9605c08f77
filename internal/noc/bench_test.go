package noc

import (
	"testing"

	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// stepLoad drives uniform random traffic into the network: each core flips a
// Bernoulli coin per cycle and, on success, injects a 5-flit packet to a
// uniformly chosen destination. Deterministic from the seed.
type stepLoad struct {
	n    *Network
	rng  *xrand.RNG
	rate float64
	// pkt is reused across injections: Inject's enqueue copies the flits
	// into the NI queue, so the packet (and its zeroed body) never escapes
	// and the driver itself stays allocation-free.
	pkt flit.Packet
}

func newStepLoad(n *Network, seed uint64, rate float64) *stepLoad {
	l := &stepLoad{n: n, rng: xrand.New(seed), rate: rate}
	l.pkt.Body = make([]uint64, 4) // 5-flit packet
	return l
}

func (l *stepLoad) inject() {
	cfg := l.n.Config()
	cores := cfg.Cores()
	for c := 0; c < cores; c++ {
		if !l.rng.Bool(l.rate) {
			continue
		}
		dst := l.rng.Intn(cores)
		if dst == c {
			continue
		}
		l.pkt.Hdr = flit.Header{
			VC:   uint8(l.rng.Intn(cfg.VCs)),
			DstR: uint8(cfg.CoreRouter(dst)),
			DstC: uint8(dst % cfg.Concentration),
			Mem:  uint32(l.rng.Uint64()),
		}
		l.n.Inject(c, &l.pkt)
	}
}

// benchUniform measures loaded Step on a size x size concentrated mesh (or
// torus, for topo "torus") under uniform traffic at the given per-core
// injection rate, reporting the mean number of in-network flits alongside
// the timing.
func benchUniform(b *testing.B, topo string, size int, rate float64) {
	cfg := DefaultConfig()
	cfg.Topo = topo
	cfg.Width, cfg.Height = size, size
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	load := newStepLoad(n, 1, rate)
	for i := 0; i < 1000; i++ { // warm up to steady state
		load.inject()
		n.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inFlight uint64
	for i := 0; i < b.N; i++ {
		load.inject()
		n.Step()
		inFlight += uint64(n.sched.flitsIn + n.sched.flitsParked)
	}
	b.ReportMetric(float64(inFlight)/float64(b.N), "flits-in-flight")
}

// BenchmarkNetworkStep measures the simulator hot path: one whole-network
// clock cycle on the paper's 4x4 concentrated mesh. Run with -benchmem; the
// allocs/op figure is what internal/noc's allocation-budget test guards.
func BenchmarkNetworkStep(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		n, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Step()
		}
	})

	// uniform: sustained uniform random traffic at a moderate, non-saturating
	// rate. Includes the injection path, as production runs do. The size
	// variants scale the per-core rate down with the core count and the
	// longer average path, so the number of flits in flight — reported as a
	// metric — stays comparable across mesh sizes: with the event-driven
	// core, Step cost should track that metric, not the router count.
	b.Run("uniform", func(b *testing.B) { benchUniform(b, "", 4, 0.02) })
	b.Run("uniform-8x8", func(b *testing.B) { benchUniform(b, "", 8, 0.0034) })
	b.Run("uniform-16x16", func(b *testing.B) { benchUniform(b, "", 16, 0.00048) })
	// The 8x8 torus at the 8x8 mesh's rate: its wraparound links carry
	// dateline VC classes, so VA grants packets VCs other than their input
	// VC (the outVC that RC resolves).
	b.Run("uniform-8x8-torus", func(b *testing.B) { benchUniform(b, "torus", 8, 0.0034) })

	// drain: pre-loaded network stepping with no new injection — the pure
	// Step cost with in-flight traffic.
	b.Run("drain", func(b *testing.B) {
		n, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		load := newStepLoad(n, 1, 0.05)
		for i := 0; i < 200; i++ {
			load.inject()
			n.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Step()
			if i%1000 == 999 {
				// Top the network back up so it never fully drains.
				b.StopTimer()
				for j := 0; j < 50; j++ {
					load.inject()
					n.Step()
				}
				b.StartTimer()
			}
		}
	})
}
