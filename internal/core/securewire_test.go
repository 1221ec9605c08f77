package core

import (
	"maps"
	"testing"

	"tasp/internal/detect"
	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/lob"
	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/xrand"
)

func targetFlit(dst uint8) flit.Flit {
	h := flit.Header{Kind: flit.Single, VC: 1, SrcR: 3, DstR: dst, Mem: 0x0900beef, Seq: 9}
	return flit.Flit{Kind: flit.Single, Payload: flit.Default.Encode(h), PacketID: 42}
}

func TestSecureWireHealthyPassThrough(t *testing.T) {
	w := NewSecureWire(nil, 1, flit.Default)
	f := targetFlit(9)
	got, res := w.Transmit(0, f, 1, 0)
	if !res.OK || res.Stall != 0 || got.Payload != f.Payload {
		t.Fatalf("healthy wire: %+v", res)
	}
	if w.Detector.Classification() != detect.Healthy {
		t.Fatal("healthy link classified otherwise")
	}
}

// TestSecureWireDefeatsTrojan walks the full Figure 6/7 sequence against a
// live TASP trojan: strike, plain retry strike, BIST, obfuscated success,
// method logged, and the flow's next flit passes on its first attempt.
func TestSecureWireDefeatsTrojan(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 2, flit.Default)

	f := targetFlit(9)
	// Attempt 0: plain, struck.
	_, res := w.Transmit(10, f, 1, 0)
	if res.OK {
		t.Fatal("attempt 0 should be struck")
	}
	// Attempt 1: plain retry, struck again; detector calls BIST.
	_, res = w.Transmit(12, f, 1, 1)
	if res.OK {
		t.Fatal("attempt 1 should be struck")
	}
	if w.BISTScans != 1 {
		t.Fatalf("BIST scans %d, want 1", w.BISTScans)
	}
	// Attempt 2: first escalation (scramble/flit) hides the target.
	got, res := w.Transmit(14, f, 1, 2)
	if !res.OK {
		t.Fatal("scrambled attempt should pass")
	}
	if got.Payload != f.Payload {
		t.Fatalf("payload corrupted through obfuscation: %016x != %016x", got.Payload, f.Payload)
	}
	if res.Stall != lob.Scramble.Penalty() {
		t.Fatalf("stall %d, want scramble penalty %d", res.Stall, lob.Scramble.Penalty())
	}
	if w.Detector.Classification() != detect.Trojan {
		t.Fatalf("classification %v, want trojan", w.Detector.Classification())
	}
	// The method is logged: the flow's next flit obfuscates on attempt 0.
	f2 := targetFlit(9)
	f2.PacketID = 43
	got, res = w.Transmit(20, f2, 1, 0)
	if !res.OK || res.Stall == 0 {
		t.Fatalf("logged method not applied on first attempt: %+v", res)
	}
	if got.Payload != f2.Payload {
		t.Fatal("payload corrupted under logged method")
	}
	if ht.Injections != 2 {
		t.Fatalf("trojan injections %d, want exactly the 2 plain strikes", ht.Injections)
	}
}

func TestSecureWireUnmitigatedKeepsFailing(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 3, flit.Default)
	w.Mitigated = false
	f := targetFlit(9)
	for attempt := 0; attempt < 50; attempt++ {
		if _, res := w.Transmit(uint64(attempt), f, 1, attempt); res.OK {
			t.Fatalf("unmitigated wire delivered target flit at attempt %d", attempt)
		}
	}
	if w.BISTScans != 0 || w.Obfuscated != 0 {
		t.Fatal("unmitigated wire used mitigation hardware")
	}
}

func TestSecureWireNonTargetUnaffected(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 4, flit.Default)
	f := targetFlit(5) // different destination
	for i := 0; i < 20; i++ {
		got, res := w.Transmit(uint64(i), f, 1, 0)
		if !res.OK || res.Stall != 0 || got.Payload != f.Payload {
			t.Fatalf("non-target flit disturbed at %d: %+v", i, res)
		}
	}
}

func TestSecureWireCorrectsTransients(t *testing.T) {
	w := NewSecureWire(fault.NewTransient(3e-3, 5), 5, flit.Default)
	f := targetFlit(2)
	okCount, corrected := 0, 0
	for i := 0; i < 5000; i++ {
		got, res := w.Transmit(uint64(i), f, 1, 0)
		if res.OK {
			okCount++
			if got.Payload != f.Payload {
				t.Fatal("corrected flit has wrong payload")
			}
		}
		if res.Corrected {
			corrected++
		}
	}
	if corrected == 0 {
		t.Fatal("no corrections at BER 3e-3")
	}
	if okCount < 4800 {
		t.Fatalf("only %d/5000 traversals delivered", okCount)
	}
}

func TestSecureWirePermanentFaultClassified(t *testing.T) {
	// Two stuck wires: uncorrectable on many words; the detector must run
	// BIST and classify the link permanent.
	w := NewSecureWire(fault.NewStuckAt(map[int]uint{10: 1, 30: 1}), 6, flit.Default)
	f := flit.Flit{Kind: flit.Single, Payload: 0, PacketID: 7} // all-zero word collides with both stucks
	for attempt := 0; attempt < 3; attempt++ {
		w.Transmit(uint64(attempt), f, 0, attempt)
	}
	if w.Detector.Classification() != detect.Permanent {
		t.Fatalf("classification %v, want permanent", w.Detector.Classification())
	}
}

func TestSecureWireBodyFlitFlowTracking(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 7, flit.Default)

	// Deliver the head under escalation so the method gets logged.
	head := flit.Flit{Kind: flit.Head, PacketID: 99, Index: 0,
		Payload: flit.Default.Encode(flit.Header{Kind: flit.Head, VC: 2, SrcR: 1, DstR: 9})}
	w.Transmit(0, head, 2, 0)
	w.Transmit(2, head, 2, 1)
	if _, res := w.Transmit(4, head, 2, 2); !res.OK {
		t.Fatal("head not delivered under scramble")
	}
	// A body flit of the same packet must resolve to the same flow and be
	// obfuscated on its first attempt via the log.
	body := flit.Flit{Kind: flit.Body, PacketID: 99, Index: 1, Payload: 0xbeef}
	got, res := w.Transmit(6, body, 2, 0)
	if !res.OK || res.Stall == 0 {
		t.Fatalf("body flit did not use the logged method: %+v", res)
	}
	if got.Payload != 0xbeef {
		t.Fatal("body payload corrupted")
	}
}

func TestSecureWireForgetsFailedMethod(t *testing.T) {
	// If a logged method stops working (trojan retuned), the wire must
	// forget it and re-escalate rather than loop on the bad method.
	ht := tasp.New(tasp.ForVC(1), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 8, flit.Default)
	flow := lob.FlowKey{SrcR: 3, DstR: 9, VC: 1}
	w.Log.Record(flow, lob.Choice{Method: lob.Invert, Gran: lob.PayloadOnly}) // useless vs a VC trigger
	f := targetFlit(9)
	if _, res := w.Transmit(0, f, 1, 0); res.OK {
		t.Fatal("payload-only invert should not hide a VC trigger")
	}
	if _, ok := w.Log.Lookup(flow); ok {
		t.Fatal("failed method not forgotten")
	}
}

// TestHealthyWireFastPathEquivalence pins the healthy-link fast path: a
// wire whose tap is fault.None returns its flit without the SECDED
// encode→decode round trip when it is a PlainWire or an unmitigated
// SecureWire, or a mitigated SecureWire on a first attempt with an empty
// method log. For random payloads, flit framings and attempt counts that
// must be indistinguishable from the full path, which an identity tap that
// is not fault.None forces. The mitigated pair must escalate at later
// attempts exactly like its twin, so the fast path has to keep the flow
// latch current; a mitigated pair whose log starts non-empty must take the
// full path at every attempt.
func TestHealthyWireFastPathEquivalence(t *testing.T) {
	identity := fault.InjectorFunc(func(_ uint64, w ecc.Codeword, _ fault.Framing) ecc.Codeword { return w })
	rng := xrand.New(5)
	kinds := []flit.Type{flit.Head, flit.Body, flit.Tail, flit.Single}

	fast, full := noc.NewPlainWire(), &noc.PlainWire{Tap: identity}
	type secure struct {
		name       string
		fast, full *SecureWire
	}
	pair := func(name string, mitigated bool) secure {
		return secure{name: name,
			fast: NewSecureWire(fault.None, 3, flit.Default).WithMitigation(mitigated),
			full: NewSecureWire(identity, 3, flit.Default).WithMitigation(mitigated)}
	}
	unprotected, mitigated, logged := pair("unmitigated", false), pair("mitigated", true), pair("mitigated, logged", true)
	for vc := uint8(0); vc < 4; vc++ {
		flow := lob.FlowKey{VC: vc} // the flow of a body flit whose head was never seen
		for _, w := range []*SecureWire{logged.fast, logged.full} {
			w.Log.Record(flow, lob.Choice{Method: lob.Invert, Gran: lob.PayloadOnly})
		}
	}
	secures := []secure{unprotected, mitigated, logged}
	for i := 0; i < 5000; i++ {
		f := flit.Flit{
			Kind:     kinds[rng.Intn(len(kinds))],
			Payload:  rng.Uint64(),
			PacketID: uint64(rng.Intn(8)),
			Index:    uint8(rng.Intn(5)),
			InjectAt: uint64(i),
		}
		cycle, vc, attempt := uint64(i), uint8(rng.Intn(4)), rng.Intn(7)
		if i%64 == 0 {
			// Escalation soon logs a method; emptying the log again sends
			// the mitigated pair back through the fast path.
			mitigated.fast.Log.Reset()
			mitigated.full.Log.Reset()
		}

		gf, gr := fast.Transmit(cycle, f, vc, attempt)
		wf, wr := full.Transmit(cycle, f, vc, attempt)
		if gf != wf || gr != wr {
			t.Fatalf("plain wire, step %d (%v attempt %d): fast path %+v %+v, full path %+v %+v", i, f.Kind, attempt, gf, gr, wf, wr)
		}
		if fast.Corrected != full.Corrected || fast.Dropped != full.Dropped || fast.Swallowed != full.Swallowed {
			t.Fatalf("plain wire, step %d: counters diverged: fast %+v, full %+v", i, *fast, *full)
		}
		for _, s := range secures {
			gf, gr := s.fast.Transmit(cycle, f, vc, attempt)
			wf, wr := s.full.Transmit(cycle, f, vc, attempt)
			if gf != wf || gr != wr {
				t.Fatalf("secure wire (%s), step %d (%v attempt %d): fast path %+v %+v, full path %+v %+v",
					s.name, i, f.Kind, attempt, gf, gr, wf, wr)
			}
			a, b := s.fast, s.full
			if a.Corrected != b.Corrected || a.Dropped != b.Dropped || a.Swallowed != b.Swallowed ||
				a.Obfuscated != b.Obfuscated || a.BISTScans != b.BISTScans || a.StallCycles != b.StallCycles ||
				a.Log.Len() != b.Log.Len() || a.Detector.Classification() != b.Detector.Classification() ||
				(a.Mitigated && !maps.Equal(a.flows, b.flows)) { // an unmitigated wire never reads its latch
				t.Fatalf("secure wire (%s), step %d: counters, L-Ob state or flow latch diverged", s.name, i)
			}
		}
	}
	if mitigated.fast.Obfuscated == 0 {
		t.Fatal("the mitigated wires never obfuscated: escalation was not exercised")
	}
	if logged.fast.Obfuscated == 0 || logged.fast.StallCycles == 0 {
		t.Fatal("the logged wires never obfuscated: the non-empty log did not force the full path")
	}
}
