package serve

// The /v1/infer parser against encoding/json: a differential fuzz test whose
// oracle is json.Unmarshal into the struct the endpoint used to decode, an
// allocation pin, and a benchmark of the parser and the old decode on a body
// shaped like the benchmark's http-lenet requests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
)

// inferPayload is the oracle's view of a /v1/infer body: the struct
// encoding/json decoded it into before the single-pass parser.
type inferPayload struct {
	Tenant string    `json:"tenant"`
	Digit  *int      `json:"digit,omitempty"`
	Image  []float32 `json:"image,omitempty"`
}

// lenetInputLen is LeNet-5's input size, the destination the tests hand the
// parser.
const lenetInputLen = 28 * 28

// benchBody is a LeNet-5 request as the benchmark's http-lenet clients send
// it: a noisy digit marshalled by encoding/json, about 8 KB.
func benchBody(tb testing.TB) []byte {
	body, err := json.Marshal(map[string]any{"tenant": "tenant-0", "image": nn.NoisyDigit(3, 1000, 0.3).Data})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// departures are the bodies encoding/json admits and the parser refuses on
// purpose, by name. Trailing bytes after the object are no departure here:
// json.Unmarshal refuses them too (the streaming json.Decoder the endpoint
// used did not).
var departures = []struct {
	name  string
	match func(err error) bool
}{
	// encoding/json ignores null for a float32 and leaves the pixel as it was.
	{"null pixel", func(err error) bool { return strings.HasSuffix(err.Error(), "] is null") }},
}

// oracleDiff parses body with parseInferBody and with the oracle and
// describes how they differ, or returns "".
func oracleDiff(body []byte) string {
	var want inferPayload
	wantErr := json.Unmarshal(body, &want)
	dst := make([]float32, lenetInputLen)
	got, err := parseInferBody(body, func() []float32 { return dst })
	switch {
	case wantErr != nil && err != nil:
		return ""
	case wantErr != nil:
		return fmt.Sprintf("admitted a body encoding/json refuses (%v)", wantErr)
	case err != nil:
		for _, d := range departures {
			if d.match(err) {
				return ""
			}
		}
		return fmt.Sprintf("refused a body encoding/json admits: %v", err)
	}
	if got.tenant != want.Tenant {
		return fmt.Sprintf("tenant %q, encoding/json %q", got.tenant, want.Tenant)
	}
	if got.hasDigit != (want.Digit != nil) || got.hasDigit && got.digit != *want.Digit {
		return fmt.Sprintf("digit %v %d, encoding/json %v", got.hasDigit, got.digit, want.Digit)
	}
	if got.hasImage != (want.Image != nil) || got.pixels != len(want.Image) {
		return fmt.Sprintf("image %v with %d elements, encoding/json %v with %d",
			got.hasImage, got.pixels, want.Image != nil, len(want.Image))
	}
	for i := 0; i < min(got.pixels, len(dst)); i++ {
		if math.Float32bits(dst[i]) != math.Float32bits(want.Image[i]) {
			return fmt.Sprintf("image[%d] = %v, encoding/json %v", i, dst[i], want.Image[i])
		}
	}
	return ""
}

// FuzzInferPayload requires the parser to make encoding/json's decision on
// every body, and on an admitted one to read the same tenant, digit and
// pixel bits; the only refusals encoding/json does not make are departures.
func FuzzInferPayload(f *testing.F) {
	f.Add(benchBody(f))
	for _, body := range []string{
		// tenant strings: escapes, a surrogate pair, a lone surrogate,
		// raw non-ASCII, invalid UTF-8, a control byte.
		`{"tenant":"caf\u00e9","digit":3}`, `{"tenant":"café","digit":3}`,
		`{"tenant":"a\/b\"c\\"}`, `{"tenant":"\ud83d\ude00"}`, `{"tenant":"\ud800"}`,
		"{\"tenant\":\"\xff\xfe\"}", "{\"tenant\":\"a\x01\"}", `{"tenant":"\x"}`,
		// keys: case-folded, escaped, near misses.
		`{"IMAGE":[1,2],"Tenant":"x"}`, `{"DiGiT":3}`, `{"\u0069mage":[1]}`, `{"imagE ":[1]}`,
		"{\"\xff\":1}", `{"tenant":"a",}`, `{,"digit":1}`, `{"digit" 1}`, `{digit:1}`,
		// duplicates: the last value wins; null clears digit and image only.
		`{"digit":1,"digit":2}`, `{"image":[1,2,3],"image":[4]}`, `{"tenant":"a","tenant":null}`,
		`{"digit":1,"digit":null}`, `{"image":[1],"image":null}`, `{"image":null,"image":[]}`,
		// unknown keys: nested, string brackets, invalid.
		`{"x":{"y":[1,{"z":"]}"}],"w":null},"digit":2}`, `{"x":[[[]]],"tenant":"t"}`,
		`{"x":"\"}","digit":0}`, `{"x":tru}`, `{"x":[}]}`, `{"x":}`, `{"x":1 2}`, `{"x":-}`,
		// numbers.
		`{"image":[-0]}`, `{"image":[1e39]}`, `{"image":[1e-46]}`, `{"image":[01]}`,
		`{"image":[1.]}`, `{"image":[.5]}`, `{"image":[+1]}`, `{"image":[1e]}`,
		`{"image":[0x1p3]}`, `{"image":[inf]}`, `{"image":[1_0]}`, `{"image":[1E+2,-3.5e-1]}`,
		`{"digit":3.0}`, `{"digit":-0}`, `{"digit":1e2}`, `{"digit":99999999999999999999}`, `{"digit":01}`,
		// types and arrays.
		`{"image":[]}`, `{"image":[ ]}`, `{"tenant":5}`, `{"digit":"3"}`, `{"image":"abc"}`,
		`{"image":{}}`, `{"image":[true]}`, `{"image":[[1]]}`, `{"image":[1,]}`, `{"image":[,1]}`,
		`{"image":[null,0.5]}`, `{"image":[0.5,nul]}`,
		// the top level.
		``, ` `, `{}`, `null`, " null \n", `nul`, `[]`, `"x"`, `1`, `true`,
		`{"tenant":"a","digit":3}{"x":1}`, `{"tenant":"a","digit":3} garbage`, "{ \"digit\" :\t3 ,\r\n\"tenant\" : \"t\" }\n",
		`{"tenant":"alpha","digit":`, `{"tenant":"alpha"`, `{"tenant":"al`, `{"image":[1,2`, `{"image":[1,2,`,
	} {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"image":[` + strings.Repeat("0.25,", lenetInputLen) + `1]}`)) // past the destination
	f.Fuzz(func(t *testing.T, body []byte) {
		if d := oracleDiff(body); d != "" {
			if len(body) > 200 {
				body = append(body[:200:200], "..."...)
			}
			t.Errorf("%q: %s", body, d)
		}
	})
}

// encoding/json's nesting limit counts the body's object: an unknown value
// nested one level less deep than the limit is admitted, one level more is
// refused, by both.
func TestParseInferBodyNestingLimit(t *testing.T) {
	for depth, admit := range map[int]bool{jsonMaxDepth - 1: true, jsonMaxDepth: false} {
		body := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"digit":1}`)
		_, err := parseInferBody(body, func() []float32 { return nil })
		if (err == nil) != admit {
			t.Errorf("unknown value nested %d deep: error %v, want admitted %v", depth, err, admit)
		}
		if d := oracleDiff(body); d != "" {
			t.Errorf("unknown value nested %d deep: %s", depth, d)
		}
	}
}

// Decoding a benchmark-shaped body allocates the tenant string and nothing
// else: the caller supplies the pixels' destination.
func TestParseInferBodyAllocs(t *testing.T) {
	body := benchBody(t)
	dst := make([]float32, lenetInputLen)
	image := func() []float32 { return dst }
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := parseInferBody(body, image); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("parseInferBody: %v allocations per benchmark-shaped body, want at most 1", allocs)
	}
}

// BenchmarkDecodeInferPayload times the parser and the decode it replaced
// (json.Decoder into the oracle's struct, then the copy into the input
// tensor) on one benchmark-shaped body.
func BenchmarkDecodeInferPayload(b *testing.B) {
	body := benchBody(b)
	dst := make([]float32, lenetInputLen)
	b.Run("parser", func(b *testing.B) {
		image := func() []float32 { return dst }
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseInferBody(body, image); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p inferPayload
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
				b.Fatal(err)
			}
			copy(dst, p.Image)
		}
	})
}
