package campaign

import (
	"strconv"

	"tasp/internal/core"
	"tasp/internal/detect"
)

// Record is one campaign point's flat result row — the scenario identity
// plus the scalar outcomes the aggregator consumes. It deliberately omits
// the bulky time series (Samples, SuspectTrace); sweeps that need those run
// the point through the harness layer instead.
type Record struct {
	Index int `json:"index"`

	Topology   string `json:"topology"`
	Width      int    `json:"width"`
	Height     int    `json:"height"`
	Benchmark  string `json:"benchmark"`
	Attack     string `json:"attack"`
	Mitigation string `json:"mitigation"`
	Seed       uint64 `json:"seed"`

	InfectedLinks   []int   `json:"infected_links"` // reused across points in the worker loop
	Throughput      float64 `json:"throughput"`
	AvgLatency      float64 `json:"avg_latency"`
	P99Latency      uint64  `json:"p99_latency"`
	Delivered       uint64  `json:"delivered"`
	VictimDelivered uint64  `json:"victim_delivered"`
	HTMatches       uint64  `json:"ht_matches"`
	HTInjections    uint64  `json:"ht_injections"`
	Obfuscated      uint64  `json:"obfuscated"`
	StallCycles     uint64  `json:"stall_cycles"`
	BISTScans       uint64  `json:"bist_scans"`
	FirstTrojanAt   uint64  `json:"first_trojan_at"`
	ReroutedAt      uint64  `json:"rerouted_at"`
	FlaggedLinks    int     `json:"flagged_links"`
	TrojanLinks     int     `json:"trojan_links"`
	BlockedRouters  int     `json:"blocked_routers"`
	Routers         int     `json:"routers"`

	// Flit-loss split by cause (noc.Counters): trojan-induced in-flight
	// swallows and their orphaned bodies vs mitigation-induced losses.
	DroppedInFlight uint64 `json:"dropped_inflight"`
	DroppedRetrans  uint64 `json:"dropped_retrans"`
	DroppedOrphan   uint64 `json:"dropped_orphan"`
	DroppedReconfig uint64 `json:"dropped_reconfig"`
	// AckFlagged counts links the secure-ack monitor convicted as droppers
	// or misrouters (0 on runs without SecureAck); RecoveredAt is the cycle
	// conviction-driven recovery first rerouted around a convicted link
	// (0 on runs without Recover, or when nothing was convicted).
	AckFlagged  int    `json:"ack_flagged"`
	RecoveredAt uint64 `json:"recovered_at"`
}

// label sets the record's scenario identity: grid index i, scenario sc and
// its lowered configuration cfg. Points of one simulation group differ only
// in Index and Mitigation, so relabelling a group's filled record yields
// each member's record.
func (r *Record) label(i int, sc Scenario, cfg *core.ExperimentConfig) {
	r.Index = i
	r.Topology = cfg.Noc.Topo
	if r.Topology == "" {
		r.Topology = "mesh"
	}
	r.Width, r.Height = cfg.Noc.Width, cfg.Noc.Height
	r.Benchmark = cfg.Benchmark
	r.Attack = sc.Attack.Name()
	r.Mitigation = cfg.Mitigation.String()
	r.Seed = sc.Seed
}

// Fill populates the outcome fields from a run's results (the scenario
// identity fields are the caller's). It must stay allocation-free: it runs
// once per point inside the worker loop.
func (r *Record) Fill(res *core.Results) {
	//nocvet:allowalloc amortized high-water growth of the worker's reused record
	r.InfectedLinks = append(r.InfectedLinks[:0], res.InfectedLinks...)
	r.Throughput = res.Throughput
	r.AvgLatency = res.AvgLatency
	r.P99Latency = res.Latency.Percentile(99)
	r.Delivered = res.Final.DeliveredPackets
	r.VictimDelivered = res.VictimDelivered
	r.HTMatches = res.HTMatches
	r.HTInjections = res.HTInjections
	r.Obfuscated = res.Obfuscated
	r.StallCycles = res.StallCycles
	r.BISTScans = res.BISTScans
	r.FirstTrojanAt = res.FirstTrojanAt
	r.ReroutedAt = res.ReroutedAt
	r.FlaggedLinks = len(res.Detections)
	r.TrojanLinks = 0
	for _, cl := range res.Detections { //nocvet:orderfree commutative count
		if cl == detect.Trojan {
			r.TrojanLinks++
		}
	}
	r.Routers = res.Config.Noc.Routers()
	r.BlockedRouters = 0
	if n := len(res.Samples); n > 0 {
		r.BlockedRouters = res.Samples[n-1].BlockedRouters
	}
	r.DroppedInFlight = res.Final.DroppedInFlight
	r.DroppedRetrans = res.Final.DroppedRetrans
	r.DroppedOrphan = res.Final.DroppedOrphan
	r.DroppedReconfig = res.Final.DroppedReconfig
	r.AckFlagged = 0
	for _, c := range res.AckVerdicts { //nocvet:orderfree commutative count
		if c == detect.AckDropper || c == detect.AckMisroute {
			r.AckFlagged++
		}
	}
	r.RecoveredAt = res.RecoveredAt
}

// appendJSONString appends a JSON string. Campaign identity strings are
// plain names (topologies, benchmarks, attack kinds), so only the escapes
// that can actually occur in Go's %v renderings are handled.
//
//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendField(dst []byte, first bool, name string) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// AppendJSONL appends the record as one JSON line (with trailing newline).
// The encoding is hand-rolled over strconv so the worker loop stays
// allocation-free once dst has grown to line size; the field names and
// order match the struct tags, so encoding/json can read the lines back.
//
//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func (r *Record) AppendJSONL(dst []byte) []byte {
	dst = append(dst, '{')
	dst = appendField(dst, true, "index")
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = appendField(dst, false, "topology")
	dst = appendJSONString(dst, r.Topology)
	dst = appendField(dst, false, "width")
	dst = strconv.AppendInt(dst, int64(r.Width), 10)
	dst = appendField(dst, false, "height")
	dst = strconv.AppendInt(dst, int64(r.Height), 10)
	dst = appendField(dst, false, "benchmark")
	dst = appendJSONString(dst, r.Benchmark)
	dst = appendField(dst, false, "attack")
	dst = appendJSONString(dst, r.Attack)
	dst = appendField(dst, false, "mitigation")
	dst = appendJSONString(dst, r.Mitigation)
	dst = appendField(dst, false, "seed")
	dst = strconv.AppendUint(dst, r.Seed, 10)
	dst = appendField(dst, false, "infected_links")
	dst = append(dst, '[')
	for i, id := range r.InfectedLinks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	dst = append(dst, ']')
	dst = appendField(dst, false, "throughput")
	dst = strconv.AppendFloat(dst, r.Throughput, 'g', -1, 64)
	dst = appendField(dst, false, "avg_latency")
	dst = strconv.AppendFloat(dst, r.AvgLatency, 'g', -1, 64)
	dst = appendField(dst, false, "p99_latency")
	dst = strconv.AppendUint(dst, r.P99Latency, 10)
	dst = appendField(dst, false, "delivered")
	dst = strconv.AppendUint(dst, r.Delivered, 10)
	dst = appendField(dst, false, "victim_delivered")
	dst = strconv.AppendUint(dst, r.VictimDelivered, 10)
	dst = appendField(dst, false, "ht_matches")
	dst = strconv.AppendUint(dst, r.HTMatches, 10)
	dst = appendField(dst, false, "ht_injections")
	dst = strconv.AppendUint(dst, r.HTInjections, 10)
	dst = appendField(dst, false, "obfuscated")
	dst = strconv.AppendUint(dst, r.Obfuscated, 10)
	dst = appendField(dst, false, "stall_cycles")
	dst = strconv.AppendUint(dst, r.StallCycles, 10)
	dst = appendField(dst, false, "bist_scans")
	dst = strconv.AppendUint(dst, r.BISTScans, 10)
	dst = appendField(dst, false, "first_trojan_at")
	dst = strconv.AppendUint(dst, r.FirstTrojanAt, 10)
	dst = appendField(dst, false, "rerouted_at")
	dst = strconv.AppendUint(dst, r.ReroutedAt, 10)
	dst = appendField(dst, false, "flagged_links")
	dst = strconv.AppendInt(dst, int64(r.FlaggedLinks), 10)
	dst = appendField(dst, false, "trojan_links")
	dst = strconv.AppendInt(dst, int64(r.TrojanLinks), 10)
	dst = appendField(dst, false, "blocked_routers")
	dst = strconv.AppendInt(dst, int64(r.BlockedRouters), 10)
	dst = appendField(dst, false, "routers")
	dst = strconv.AppendInt(dst, int64(r.Routers), 10)
	dst = appendField(dst, false, "dropped_inflight")
	dst = strconv.AppendUint(dst, r.DroppedInFlight, 10)
	dst = appendField(dst, false, "dropped_retrans")
	dst = strconv.AppendUint(dst, r.DroppedRetrans, 10)
	dst = appendField(dst, false, "dropped_orphan")
	dst = strconv.AppendUint(dst, r.DroppedOrphan, 10)
	dst = appendField(dst, false, "dropped_reconfig")
	dst = strconv.AppendUint(dst, r.DroppedReconfig, 10)
	dst = appendField(dst, false, "ack_flagged")
	dst = strconv.AppendInt(dst, int64(r.AckFlagged), 10)
	dst = appendField(dst, false, "recovered_at")
	dst = strconv.AppendUint(dst, r.RecoveredAt, 10)
	return append(dst, '}', '\n')
}
