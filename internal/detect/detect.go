// Package detect implements the paper's heuristic threat source detector
// (Section IV-B, Figure 6). One detector guards each link's receiving side.
// When ECC flags a fault it records the syndrome together with the packet's
// characteristics; the decision flow is the paper's:
//
//   - fault not seen before          -> correct / signal retransmission
//   - same flit faulted before       -> notify BIST (repeated transients are
//     unlikely) and, if the flit was already obfuscated, escalate to the
//     next L-Ob method; otherwise enable L-Ob now
//   - clean arrival of an obfuscated flit -> undo (1-cycle stall), notify
//     the upstream so the successful method is logged for similar flits
//
// Out of these observations the detector classifies the link: Transient
// (isolated, non-repeating faults), Permanent (BIST found stuck wires) or
// HardwareTrojan (repeating faults on targeted flits that stop under
// obfuscation while BIST finds nothing).
package detect

import (
	"fmt"
	"maps"

	"tasp/internal/bist"
	"tasp/internal/lob"
)

// Classification is the detector's verdict about a link.
type Classification uint8

// Link verdicts.
const (
	Healthy   Classification = iota // no faults observed
	Transient                       // isolated faults, none repeating
	Permanent                       // BIST found stuck wires
	Trojan                          // targeted faults defeated by obfuscation
	Suspect                         // repeating faults, cause not yet proven
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case Healthy:
		return "healthy"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Trojan:
		return "trojan"
	case Suspect:
		return "suspect"
	default:
		return fmt.Sprintf("classification(%d)", uint8(c))
	}
}

// FlitKey identifies one flit for the fault-history table.
type FlitKey struct {
	PacketID uint64
	Index    uint8
}

// Action tells the link controller what to do after a fault.
type Action struct {
	// RunBIST asks for a link scan before the next retransmission.
	RunBIST bool
	// Obfuscate asks the upstream to apply (or escalate) L-Ob for this
	// flit's retransmission.
	Obfuscate bool
}

// record is one fault-history entry.
type record struct {
	key       FlitKey
	faults    int
	syndromes []int
	obfTried  int // obfuscation attempts made for this flit
}

// Detector is the per-link threat source detector.
type Detector struct {
	// historyCap bounds the fault-history table (the hardware table in the
	// power model holds 4 entries; the functional model defaults larger so
	// software analyses aren't table-limited).
	historyCap int
	history    []*record
	index      map[FlitKey]*record

	bistDone   bool
	bistReport bist.Report

	// Granularity evidence for trigger localisation: success/failure per
	// granularity of obfuscation attempts.
	granOK   map[lob.Granularity]int
	granFail map[lob.Granularity]int

	// Counters for experiments and tests.
	FaultEvents    uint64 // uncorrectable decodes observed
	RepeatedFaults uint64 // faults on flits already in the history
	CleanAfterObf  uint64 // obfuscated flits that arrived clean

	class Classification

	// free recycles retired records (and their syndrome storage) so a
	// sustained attack's insert/remove churn stops allocating once the list
	// has warmed up to the history high-water mark.
	free []*record
}

// DefaultHistoryCap is the default fault-history table size.
const DefaultHistoryCap = 64

// New returns a detector with the given history capacity (0 = default).
func New(historyCap int) *Detector {
	if historyCap <= 0 {
		historyCap = DefaultHistoryCap
	}
	return &Detector{
		historyCap: historyCap,
		index:      map[FlitKey]*record{},
		granOK:     map[lob.Granularity]int{},
		granFail:   map[lob.Granularity]int{},
	}
}

// OnFault implements the left half of Figure 6: an uncorrectable decode
// arrived. obf is the obfuscation that was applied to this attempt (None
// for plain traversals).
func (d *Detector) OnFault(key FlitKey, syndrome int, obf lob.Choice) Action {
	d.FaultEvents++
	r := d.index[key]
	if r == nil {
		// "Has this flit or fault been seen before?" — no: record it and
		// signal retransmission. The first observation can already be
		// obfuscated (attempt 0 replays the flow's logged method, and a
		// sustained attack can evict a flit's record between its retries);
		// that evidence feeds TriggerScope and must not be lost.
		r = d.getRecord(key)
		d.insert(r)
		r.faults = 1
		r.syndromes = append(r.syndromes, syndrome)
		if obf.Method != lob.None {
			r.obfTried++
			d.granFail[obf.Gran]++
		}
		if d.class == Healthy {
			d.class = Transient
		}
		return Action{}
	}
	// Seen before: repeated transients are unlikely — involve BIST, and
	// enable or escalate obfuscation.
	d.RepeatedFaults++
	r.faults++
	r.syndromes = append(r.syndromes, syndrome)
	if obf.Method != lob.None {
		r.obfTried++
		d.granFail[obf.Gran]++
	}
	if d.class == Healthy || d.class == Transient {
		d.class = Suspect
	}
	return Action{RunBIST: !d.bistDone, Obfuscate: true}
}

// OnClean implements the right half of Figure 6: a flit arrived without
// faults. If it was obfuscated, the undo stall has already been charged by
// the wire; here the detector updates the evidence and the classification.
func (d *Detector) OnClean(key FlitKey, obf lob.Choice) {
	if obf.Method == lob.None {
		return
	}
	d.CleanAfterObf++
	d.granOK[obf.Gran]++
	if r := d.index[key]; r != nil && r.faults >= 2 && d.bistDone && !d.bistReport.Permanent() {
		// Targeted repeating faults that stop under obfuscation, on a link
		// BIST says is electrically sound: a trojan.
		d.class = Trojan
	}
	// The flit got through; retire its history entry.
	d.remove(key)
}

// SetBISTResult records a completed link scan.
func (d *Detector) SetBISTResult(rep bist.Report) {
	d.bistDone = true
	d.bistReport = rep
	if rep.Permanent() {
		d.class = Permanent
	}
}

// BISTReport returns the last scan and whether one has run.
func (d *Detector) BISTReport() (bist.Report, bool) { return d.bistReport, d.bistDone }

// Classification returns the current verdict.
func (d *Detector) Classification() Classification { return d.class }

// TriggerScope reports where the trojan's trigger appears to tap, from the
// granularity evidence: narrowing obfuscation to the header (or payload)
// while still defeating the trojan localises the comparator.
func (d *Detector) TriggerScope() string {
	switch {
	case d.granOK[lob.HeaderOnly] > 0 && d.granFail[lob.PayloadOnly] > 0:
		return "header"
	case d.granOK[lob.PayloadOnly] > 0 && d.granFail[lob.HeaderOnly] > 0:
		return "payload"
	case d.granOK[lob.WholeFlit] > 0:
		return "flit"
	default:
		return "unknown"
	}
}

// insert adds a record, evicting the oldest beyond capacity. Eviction
// copies the survivors down instead of re-slicing (`history = history[1:]`
// would keep advancing into the backing array, forcing append to reallocate
// an ever-new array every historyCap inserts under sustained attack); the
// backing array is allocated once and never grows past historyCap.
func (d *Detector) insert(r *record) {
	if d.history == nil {
		d.history = make([]*record, 0, d.historyCap)
	}
	if len(d.history) >= d.historyCap {
		old := d.history[0]
		delete(d.index, old.key)
		n := copy(d.history, d.history[1:])
		d.history[n] = nil // release the evicted pointer
		d.history = d.history[:n]
		d.recycle(old)
	}
	d.history = append(d.history, r)
	d.index[r.key] = r
}

// remove drops a flit's record once it has been delivered.
func (d *Detector) remove(key FlitKey) {
	r := d.index[key]
	if r == nil {
		return
	}
	delete(d.index, key)
	for i, h := range d.history {
		if h == r {
			d.history = append(d.history[:i], d.history[i+1:]...)
			break
		}
	}
	d.recycle(r)
}

// getRecord returns a recycled record keyed for a new flit, or a fresh one
// while the free list is still warming up to the history high-water mark.
func (d *Detector) getRecord(key FlitKey) *record {
	if k := len(d.free); k > 0 {
		r := d.free[k-1]
		d.free = d.free[:k-1]
		r.key = key
		r.faults, r.obfTried = 0, 0
		r.syndromes = r.syndromes[:0]
		return r
	}
	return &record{key: key}
}

// recycle returns a retired record (and its grown syndrome storage) to the
// free list. The list is bounded by historyCap, since only resident records
// are ever retired.
func (d *Detector) recycle(r *record) { d.free = append(d.free, r) }

// Reset forgets every observation — history, BIST outcome, granularity
// evidence, counters and verdict — returning the detector to its post-New
// state. Resident records are recycled rather than dropped, so a reset
// detector re-reaches steady state without reallocating its history.
func (d *Detector) Reset() {
	d.clearHistory()
	d.bistDone = false
	d.bistReport = bist.Report{}
	clear(d.granOK)
	clear(d.granFail)
	d.FaultEvents, d.RepeatedFaults, d.CleanAfterObf = 0, 0, 0
	d.class = Healthy
}

// clearHistory empties the fault-history table, recycling its records.
func (d *Detector) clearHistory() {
	for i, r := range d.history {
		delete(d.index, r.key)
		d.history[i] = nil
		d.recycle(r)
	}
	d.history = d.history[:0]
}

// CopyFrom makes d's observations a copy of src's: the fault history in
// table order, the BIST outcome, the granularity evidence, the counters and
// the verdict. Records are drawn from d's own recycle list, so no pointer
// crosses between the detectors and a warm copy allocates nothing. Both
// detectors must have the same history capacity. The campaign engine forks
// a simulation with it (DESIGN.md §11).
func (d *Detector) CopyFrom(src *Detector) {
	if d.historyCap != src.historyCap {
		panic("detect: CopyFrom between detectors of different history capacity")
	}
	d.clearHistory()
	if d.history == nil && len(src.history) > 0 {
		d.history = make([]*record, 0, d.historyCap)
	}
	for _, s := range src.history {
		r := d.getRecord(s.key)
		r.faults, r.obfTried = s.faults, s.obfTried
		r.syndromes = append(r.syndromes, s.syndromes...)
		d.history = append(d.history, r)
		d.index[r.key] = r
	}
	d.bistDone = src.bistDone
	stuck := append(d.bistReport.Stuck[:0], src.bistReport.Stuck...)
	d.bistReport = src.bistReport
	d.bistReport.Stuck = stuck
	clear(d.granOK)
	maps.Copy(d.granOK, src.granOK)
	clear(d.granFail)
	maps.Copy(d.granFail, src.granFail)
	d.FaultEvents, d.RepeatedFaults, d.CleanAfterObf = src.FaultEvents, src.RepeatedFaults, src.CleanAfterObf
	d.class = src.class
}

// HistoryLen reports the current fault-history occupancy.
func (d *Detector) HistoryLen() int { return len(d.history) }

// Cap reports the configured fault-history capacity.
func (d *Detector) Cap() int { return d.historyCap }
