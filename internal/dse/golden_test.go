package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
		}, "0c3eca96cc965b913b24ec0a6fa3c534b907453fef8f6c88012aab2643fb6181"},
		{"thesis/lenet5/S10SX/8", func() (any, error) {
			return ExploreWith(lenet, "lenet5", fpga.S10SX, Options{MaxCandidates: 8})
		}, "d1916932013ca7c024990dd1596c57084bd19133cc526b2384a3812bc15a470f"},
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
		}
	}
}
