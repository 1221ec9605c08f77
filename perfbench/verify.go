package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"strings"

	"tasp/internal/noc"
)

// refSeed is the seed the stored reference digests were taken at. At that
// seed paper-eval's output is testdata/golden/experiments-all-mesh.txt and
// the sweep grid is specs/sweep-1080.json.
const refSeed = 1

// The reference digests, one file per workload: "<id> <sha256>" per
// paper-eval section, one sha256 per JSONL record for the campaign
// workloads.
//
//go:embed ref/*.txt
var refFS embed.FS

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// refDigests loads a workload's stored digests, one per line.
func refDigests(workload string) ([]string, error) {
	data, err := refFS.ReadFile("ref/" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"), nil
}

// section is one experiment's part of the rendered `-exp all` output: its
// "==== id ====" banner and everything up to the next banner.
type section struct {
	id, text string
}

// splitSections splits rendered `-exp all` output at its banners.
func splitSections(out string) ([]section, error) {
	var secs []section
	for len(out) > 0 {
		if !strings.HasPrefix(out, "==== ") {
			return nil, fmt.Errorf("expected a section banner at %q", head(out))
		}
		end := strings.Index(out[1:], "\n==== ")
		text := out
		if end >= 0 {
			text = out[:end+2]
		}
		banner := text[:strings.IndexByte(text+"\n", '\n')]
		id := strings.TrimSuffix(strings.TrimPrefix(banner, "==== "), " ====")
		secs = append(secs, section{id, text})
		out = out[len(text):]
	}
	return secs, nil
}

func head(s string) string {
	if len(s) > 40 {
		return s[:40]
	}
	return s
}

// splitLines splits JSONL into its records, each keeping its newline.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			i = len(data) - 1
		}
		out = append(out, data[:i+1])
		data = data[i+1:]
	}
	return out
}

// conserved checks a point's final counters: every dropped flit has
// exactly one cause, and nothing is delivered that was not injected.
func conserved(c noc.Counters) error {
	if sum := c.DroppedRetrans + c.DroppedInFlight + c.DroppedOrphan + c.DroppedReconfig; c.DroppedFlits != sum {
		return fmt.Errorf("dropped flits %d != retrans %d + inflight %d + orphan %d + reconfig %d",
			c.DroppedFlits, c.DroppedRetrans, c.DroppedInFlight, c.DroppedOrphan, c.DroppedReconfig)
	}
	if c.DeliveredFlits > c.InjectedFlits || c.DeliveredPackets > c.InjectedPackets {
		return fmt.Errorf("delivered %d flits / %d packets but injected %d / %d",
			c.DeliveredFlits, c.DeliveredPackets, c.InjectedFlits, c.InjectedPackets)
	}
	return nil
}

// compareLines counts the records of got that differ from want (got[i]
// and want[i] are the same point's) or that bad, if not nil, marks as
// known wrong.
func compareLines(got, want [][]byte, bad []bool) (failed int) {
	for i := range want {
		if bad != nil && bad[i] || !bytes.Equal(got[i], want[i]) {
			failed++
		}
	}
	return failed
}
