package serve

// The /v1/infer body parser. One pass over the body reads the one object the
// endpoint accepts and writes each "image" element straight into the
// request's input tensor, parsed by strconv.ParseFloat(tok, 32) as
// encoding/json parses a float32, so every pixel is bit-identical to a
// reflection decode. encoding/json would scan the whole body once to
// validate it before decoding it, into a []float32 grown by doubling; here a
// plain-ASCII body costs one allocation, the tenant string.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// inferBody is a parsed /v1/infer body: a tenant plus either an MNIST digit
// (LeNet-5 convenience) or a flat image of the deployment's input shape.
type inferBody struct {
	tenant   string
	digit    int
	hasDigit bool
	hasImage bool
	pixels   int // elements in the last "image" array, stored or not
}

// jsonMaxDepth is encoding/json's nesting limit, counted from the outermost
// value.
const jsonMaxDepth = 10000

// parseInferBody parses data as one JSON object. It reads "tenant" (a
// string), "digit" (an int) and "image" (an array of numbers), matching keys
// as encoding/json matches struct fields: exactly, then case-insensitively.
// A repeated key's last value wins. null leaves the tenant as it is and
// clears the digit or the image, as it does for a struct field. The first
// "image" array calls image for its destination; elements past the
// destination's length are checked and counted but not stored. Unknown keys
// are skipped once their value is checked; only whitespace may follow the
// object. Unlike encoding/json, a null image element is refused: encoding/json
// would leave that pixel as it was.
func parseInferBody(data []byte, image func() []float32) (inferBody, error) {
	p := bodyParser{data: data, image: image}
	var b inferBody
	c, err := p.next()
	if err != nil {
		return b, err
	}
	switch c {
	case 'n': // encoding/json leaves the struct as it is
		err = p.null()
	case '{':
		err = p.object(&b)
	default:
		err = p.syntax("an object")
	}
	if err != nil {
		return b, err
	}
	if p.ws(); p.i < len(data) {
		return b, fmt.Errorf("invalid character %q after the object at offset %d", data[p.i], p.i)
	}
	return b, nil
}

type bodyParser struct {
	data  []byte
	i     int
	image func() []float32
	dst   []float32 // image's result, fetched at the first "image" array
}

func (p *bodyParser) ws() {
	for ; p.i < len(p.data); p.i++ {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// next skips whitespace and returns the byte it stops at.
func (p *bodyParser) next() (byte, error) {
	if p.ws(); p.i == len(p.data) {
		return 0, io.ErrUnexpectedEOF
	}
	return p.data[p.i], nil
}

// syntax reports the byte at p.i where want was expected.
func (p *bodyParser) syntax(want string) error {
	if p.i >= len(p.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.data[p.i], p.i, want)
}

func (p *bodyParser) object(b *inferBody) error {
	p.i++ // '{'
	done, err := p.empty('}')
	for ; !done && err == nil; done, err = p.sep('}') {
		var name string
		if name, err = p.key(); err != nil {
			return err
		}
		switch name {
		case "tenant":
			err = p.tenant(b)
		case "digit":
			err = p.digit(b)
		case "image":
			err = p.pixels(b)
		default:
			err = p.skip()
		}
		if err != nil {
			return err
		}
	}
	return err
}

// empty steps over the closing byte of an empty object or array.
func (p *bodyParser) empty(end byte) (bool, error) {
	c, err := p.next()
	if err == nil && c == end {
		p.i++
		return true, nil
	}
	return false, err
}

// sep steps over the ',' between members or the closing byte after the last.
func (p *bodyParser) sep(end byte) (bool, error) {
	c, err := p.next()
	switch {
	case err != nil:
		return false, err
	case c == end:
		p.i++
		return true, nil
	case c == ',':
		p.i++
		return false, nil
	}
	return false, p.syntax(fmt.Sprintf("',' or '%c'", end))
}

// inferKeys are the body's field names.
var inferKeys = [...]string{"tenant", "digit", "image"}

// key reads an object key and its ':' and returns the field name the key
// selects, or "".
func (p *bodyParser) key() (string, error) {
	if c, err := p.next(); err != nil || c != '"' {
		return "", p.syntax("a key")
	}
	start, end, plain, err := p.str()
	if err != nil {
		return "", err
	}
	if c, err := p.next(); err != nil || c != ':' {
		return "", p.syntax("':'")
	}
	p.i++
	k := p.data[start:end]
	if !plain {
		var s string
		if err := json.Unmarshal(p.data[start-1:end+1], &s); err != nil {
			return "", err
		}
		k = []byte(s)
	}
	for _, name := range inferKeys {
		if string(k) == name {
			return name, nil
		}
	}
	for _, name := range inferKeys {
		if bytes.EqualFold(k, []byte(name)) {
			return name, nil
		}
	}
	return "", nil
}

// str steps over the string that opens at p.i and returns its contents'
// bounds. plain reports printable ASCII without escapes: the raw bytes are
// the value. Escapes are checked by whoever reads a string that is not plain.
func (p *bodyParser) str() (start, end int, plain bool, err error) {
	start, plain = p.i+1, true
	for i := start; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			p.i = i + 1
			return start, i, plain, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case c < 0x20:
			p.i = i
			return 0, 0, false, p.syntax("a string byte")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return 0, 0, false, io.ErrUnexpectedEOF
}

func (p *bodyParser) null() error {
	rest := p.data[p.i:]
	if bytes.HasPrefix(rest, []byte("null")) {
		p.i += 4
		return nil
	}
	if len(rest) < 4 && bytes.HasPrefix([]byte("null"), rest) {
		return io.ErrUnexpectedEOF
	}
	return p.syntax("null")
}

func (p *bodyParser) tenant(b *inferBody) error {
	c, err := p.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return p.null()
	case c != '"':
		return p.syntax("a string for tenant")
	}
	start, end, plain, err := p.str()
	if err != nil {
		return err
	}
	if plain {
		b.tenant = string(p.data[start:end])
		return nil
	}
	var t string // not &b.tenant: that would move every body's b to the heap
	err = json.Unmarshal(p.data[start-1:end+1], &t)
	b.tenant = t
	return err
}

func (p *bodyParser) digit(b *inferBody) error {
	c, err := p.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		b.hasDigit = false
		return p.null()
	}
	tok, err := p.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("digit: %w", err)
	}
	b.digit, b.hasDigit = int(v), true
	return nil
}

func (p *bodyParser) pixels(b *inferBody) error {
	c, err := p.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		b.hasImage, b.pixels = false, 0
		return p.null()
	case c != '[':
		return p.syntax("an array for image")
	}
	if p.dst == nil {
		p.dst = p.image()
	}
	dst := p.dst
	p.i++
	n := 0
	done, err := p.empty(']')
	for d := p.data; !done && err == nil; {
		if c, err := p.next(); err != nil {
			return err
		} else if c == 'n' {
			return fmt.Errorf("image[%d] is null", n)
		}
		tok, nerr := p.number()
		if nerr != nil {
			return nerr
		}
		// unsafe.String instead of string(tok) saves a copy per pixel (about
		// 8 % of a LeNet-5 body's parse). ParseFloat keeps no reference to
		// its argument (its errors hold a copy) and nothing writes the body
		// while it runs.
		f, ferr := strconv.ParseFloat(unsafe.String(unsafe.SliceData(tok), len(tok)), 32)
		if ferr != nil {
			return fmt.Errorf("image[%d]: %w", n, ferr)
		}
		if n < len(dst) {
			dst[n] = float32(f)
		}
		n++
		// sep, inlined for the common "x,y" spelling.
		if p.i < len(d) && d[p.i] == ',' {
			p.i++
		} else {
			done, err = p.sep(']')
		}
	}
	if err != nil {
		return err
	}
	b.hasImage, b.pixels = true, n
	return nil
}

// number steps over the JSON number at p.i and returns it. The grammar is
// checked here because strconv also takes "+1", ".5", "0x1p3", "inf" and
// "1_0".
func (p *bodyParser) number() ([]byte, error) {
	d, i := p.data, p.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digitsEnd(d, i)
	default:
		p.i = i
		return nil, p.syntax("a number")
	}
	if i < len(d) && d[i] == '.' {
		if j := digitsEnd(d, i+1); j > i+1 {
			i = j
		} else {
			p.i = i + 1
			return nil, p.syntax("a digit")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digitsEnd(d, i); j > i {
			i = j
		} else {
			p.i = i
			return nil, p.syntax("a digit")
		}
	}
	tok := d[p.i:i]
	p.i = i
	return tok, nil
}

// digitsEnd returns the end of the run of decimal digits at d[i:].
func digitsEnd(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// skip steps over an unknown key's value: it finds the value's extent,
// stepping over strings whole and balancing brackets, and has json.Valid
// check that span.
func (p *bodyParser) skip() error {
	if _, err := p.next(); err != nil {
		return err
	}
	start, depth, deepest := p.i, 0, 0
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case '"':
			if _, _, _, err := p.str(); err != nil {
				return err
			}
			if depth == 0 {
				return p.valid(start, deepest)
			}
			continue
		case '{', '[':
			depth++
			deepest = max(deepest, depth)
		case '}', ']':
			if depth == 0 {
				return p.valid(start, deepest)
			}
			if depth--; depth == 0 {
				p.i++
				return p.valid(start, deepest)
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return p.valid(start, deepest)
			}
		}
		p.i++
	}
	return io.ErrUnexpectedEOF
}

// valid checks the skipped span data[start:p.i], which nests deepest levels
// inside the body's object.
func (p *bodyParser) valid(start, deepest int) error {
	if 1+deepest > jsonMaxDepth {
		return fmt.Errorf("value at offset %d nests deeper than %d", start, jsonMaxDepth)
	}
	if !json.Valid(p.data[start:p.i]) {
		return fmt.Errorf("invalid value at offset %d", start)
	}
	return nil
}
