package aoc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestReportGoldenHashes pins, per design, the rendered optimization report
// (loop modes and IIs) and area report (LSU kinds, widths, replicas, cache
// and alignment flags, resources) of every kernel, plus the design's fit
// summary. A refactor of the LSU or loop analysis must leave every line
// where it was; a hash change means the model moved. If a change is meant
// to move it, regenerate the hash and say why.
func TestReportGoldenHashes(t *testing.T) {
	want := map[string]string{
		"ladder/Base/S10MX":          "cb6a8b719a3696ba66fcef59ea5a18056c7901de0b1cbc84358a19aa49f4c999",
		"ladder/Unrolling/S10MX":     "557ae8864c9cf53f95d992a0383d5e20ed4dc7688862c3ea2a4c3ff43c746f46",
		"ladder/Channels/S10MX":      "9449f9d2f989b8d2002dba98cfb7e553998635ddfb180c9375d84f570078bb31",
		"ladder/Autorun/S10MX":       "c237d7b37a6ff018c1772d0b294824e6be4359ce0011faaff773942d6a9b9332",
		"ladder/TVM-Autorun/S10MX":   "862d56f0dfc8eaedd69abddc31e11c6dbe743bece5bfe892d59420d1c15d5dfd",
		"deployed/mobilenetv1/S10MX": "b2d0b5dc1fe3b6ae362a8b38f3faf7f6b9936506d957a7a9d5f1a325600c2a00",
		"naive/mobilenetv1/S10MX":    "b0aeba9852d4ff2deab647b2c5c497e586547bc490b2750972f399e0bb74c2b7",
		"deployed/resnet18/S10MX":    "fe1c5c63dd8433e57c67644a924ac7223a64551fa8eeb4526e46b8563e6d4b78",
		"naive/resnet18/S10MX":       "4b68da9f87213e816b3b65d62c4afa50fac82bda9c81a23e0dfad0d366fa0fde",
		"deployed/resnet34/S10MX":    "fe1c5c63dd8433e57c67644a924ac7223a64551fa8eeb4526e46b8563e6d4b78",
		"naive/resnet34/S10MX":       "77396f251ddd3497dd6ed8eb9a0a08e74815022d3de3e5fa06e9e6ebedc3e6d0",
		"ladder/Base/S10SX":          "44418e44cfd1735d5e50e5a7faa6b96586af5e70835daf08fada72ec0226b7f7",
		"ladder/Unrolling/S10SX":     "28f0e0f47832cecfe0591bfcd4fcc1c4a8fcc2bda37c89dcc37239e0545d0660",
		"ladder/Channels/S10SX":      "e7e94014777e7150e051c1f656dc3d3ee0c05f557181766b5220dd51890b9ad3",
		"ladder/Autorun/S10SX":       "055e524cc3b6311859d84647c58da27227dbb3c2744562d3ded326bfbbb54822",
		"ladder/TVM-Autorun/S10SX":   "4a265839009a7b2147956541b6bde5bc454fdafef0768d54c5eccc75f7f2298c",
		"deployed/mobilenetv1/S10SX": "24e7cc82ce8cf6235918fdc4b4c584da7fac166576fd36f2890772ffcf2ee7cc",
		"naive/mobilenetv1/S10SX":    "83da593f530645bc78d7efaf5b08ecc3d1a1a5b391f99f1d8828842d45b2a5b1",
		"deployed/resnet18/S10SX":    "aec993a7dd07f4fb3d8059b20463d9733b2779ffeeba555d20a3f3eb516386da",
		"naive/resnet18/S10SX":       "56566ad38d9389e683f81912cf2f426ceae109f42724770a23cdb634b01c97eb",
		"deployed/resnet34/S10SX":    "aec993a7dd07f4fb3d8059b20463d9733b2779ffeeba555d20a3f3eb516386da",
		"naive/resnet34/S10SX":       "9adfb037fcc87a8976938dc5721dd277394407bcbd9f00e4d102b139890c8d7f",
		"ladder/Base/A10":            "f17d9409a2313e497fe0f02b23ab37f5fce25f60f722fb9d9ad7705b33e96a3a",
		"ladder/Unrolling/A10":       "a7eb482374b4a26a5caf0855fde58287c2a91a26a0fc5ee309686b904988d75e",
		"ladder/Channels/A10":        "79a0e53c980f515a6456555e31f615a06648b6a0296b651dd39209f88b1eb966",
		"ladder/Autorun/A10":         "42cd91271f3244155469871a5291faf563bdc92d33b3f4a549a020a220f5043f",
		"ladder/TVM-Autorun/A10":     "821d542a71de0d48d37a382993c68a0c8b40ef0b86f04fb69166322e3b85f576",
		"deployed/mobilenetv1/A10":   "b0272f2290e775933d7ab3fabaca3b8bb8fa9855644637009c8b4cab7f94f180",
		"naive/mobilenetv1/A10":      "902c6725b29ba589713253aa6cd46031804c8cd336c7e94dbb3ea39f84a99655",
		"deployed/resnet18/A10":      "2db7d3b46fdf3ee12dc964197b16f42e8d12a6e0309b0dbb5a8c8dcce8d1aa91",
		"naive/resnet18/A10":         "adc0477260a382a107b59463595a160db9de5a850813045de08ef4a9e803c722",
		"deployed/resnet34/A10":      "2db7d3b46fdf3ee12dc964197b16f42e8d12a6e0309b0dbb5a8c8dcce8d1aa91",
		"naive/resnet34/A10":         "025d81a74b77adf59e75d139cbafe23dea031bf9ec72440ab48e8748e32d4e7e",
	}
	designs := repoDesigns(t)
	if len(designs) != len(want) {
		t.Errorf("%d designs, %d pinned hashes", len(designs), len(want))
	}
	for _, d := range designs {
		var b strings.Builder
		for _, m := range d.design.Kernels {
			b.WriteString(m.OptimizationReport())
			b.WriteString(m.AreaReport())
		}
		b.WriteString(d.design.DesignReport())
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != want[d.name] {
			t.Errorf("%s: report sha256 = %s, want %s", d.name, got, want[d.name])
		}
	}
}
