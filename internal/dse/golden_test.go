package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fpga"
)

// TestExploreGoldenHashes pins the JSON encoding of one run per tier across
// commits: a refactor of the search driver must leave every candidate, time,
// prune split and cache counter exactly where it was. The worker-count tests
// only compare runs within one commit; these hashes compare against history.
// If a change is meant to move a result, regenerate the hash and say why.
func TestExploreGoldenHashes(t *testing.T) {
	lenet, mobilenet := lenetLayers(t), mobilenetLayers(t)
	cases := []struct {
		name string
		run  func() (any, error)
		want string
	}{
		{"thesis/mobilenetv1/S10SX/24", func() (any, error) {
			return ExploreWith(mobilenet, "mobilenetv1", fpga.S10SX, Options{MaxCandidates: 24})
		}, "35c8fb648c3755fe074892d6afa555bb2942b18a199e68813e07fa03ed155a01"},
		{"thesis/lenet5/S10SX/8", func() (any, error) {
			return ExploreWith(lenet, "lenet5", fpga.S10SX, Options{MaxCandidates: 8})
		}, "451c56f318192e5255b97eb2e894285b2684c2709ec7d1c6aa63cce079c93268"},
		{"joint/lenet5/A10", func() (any, error) {
			return ExploreJointWith(lenet, "lenet5", fpga.A10, Options{})
		}, "05dc69413475c2f480a1e377d23d7032210b22e5a56cc6cb514fd2369f8c0f28"},
		{"guided/lenet5/A10/seed1/24", func() (any, error) {
			return ExploreGuided(lenet, "lenet5", fpga.A10, GuidedOptions{
				Options: Options{MaxCandidates: 24}, Seed: 1,
			})
		}, "b8f139c68fef9b5e2e2ea28c400810816e5a2a323adba26a0b79f0a35114e7e5"},
	}
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: result sha256 = %s, want %s", c.name, got, c.want)
			t.Logf("%s: %s", c.name, summarize(res))
		}
	}
}

// summarize renders the counters a moved hash most often moved with, so the
// failure names what changed.
func summarize(res any) string {
	var r *Result
	switch v := res.(type) {
	case *Result:
		r = v
	case *JointResult:
		r = &v.Result
	case *GuidedResult:
		r = &v.Result
	default:
		return fmt.Sprintf("no summary for %T", res)
	}
	best := "none"
	if b, err := r.Best(); err == nil {
		best = fmt.Sprintf("%v us", b.TimeUS)
	}
	return fmt.Sprintf("evaluated %d, pruned %d (bandwidth %d, route %d), cache %d hits/%d misses, best %s",
		r.Evaluated, r.Pruned, r.PrunedBandwidth, r.PrunedRoute, r.CacheHits, r.CacheMisses, best)
}
