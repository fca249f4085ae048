package modelio

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Decode reads a model document from r to EOF and decodes it with
// DecodeBytes.
func Decode(r io.Reader) (*Spec, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(b)
}

// readAll reads r to EOF. bytes.Buffer reads a sized reader
// (bytes.Reader, strings.Reader) in one exact allocation through
// WriterTo, and anything else in doubling steps.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBytes decodes the model document in b. A ctmc document in plain
// JSON (no string escapes, no null, each key spelled exactly and given
// once) decodes in one pass without reflection (decodeCTMC); every other
// document, and every invalid one, decodes through encoding/json with
// unknown fields disallowed. Both paths give the same Spec, bit for bit,
// and every decode error comes from encoding/json. DecodeBytes checks
// nothing else: ParseBytes adds the type/section check, and
// lint.CheckDocument reads documents through Decode alone.
func DecodeBytes(b []byte) (*Spec, error) {
	if s, ok := decodeCTMC(b); ok {
		return s, nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// ctmcDecoder is a cursor over one document for decodeCTMC.
type ctmcDecoder struct {
	b []byte
	i int
	// names maps a string's bytes to the first string decoded from them,
	// so an n-state chain allocates n state names, not one per endpoint.
	names map[string]string
}

// decodeCTMC decodes a ctmc document in the plain JSON subset that
// generators write, in one pass and without reflection. It accepts only
// documents whose Spec it builds exactly as encoding/json with
// DisallowUnknownFields would, and declines (false) everything else:
// null, string escapes, invalid UTF-8, keys that are unknown, repeated
// or match only case-insensitively, type and range errors, and malformed
// or truncated input. The caller then decodes the same bytes with
// encoding/json, which owns every error message. Bytes after the
// top-level object are ignored, as json.Decoder.Decode ignores them.
func decodeCTMC(b []byte) (*Spec, bool) {
	d := ctmcDecoder{b: b}
	s := new(Spec)
	ok := d.object(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "type":
			s.Type, ok = d.str()
			return 1 << 0, ok
		case "name":
			s.Name, ok = d.str()
			return 1 << 1, ok
		case "ctmc":
			s.CTMC = new(CTMCSpec)
			return 1 << 2, d.ctmc(s.CTMC)
		}
		return 0, false
	})
	if !ok {
		return nil, false
	}
	return s, true
}

// ctmc decodes the ctmc section into c.
func (d *ctmcDecoder) ctmc(c *CTMCSpec) bool {
	return d.object(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "transitions":
			c.Transitions, ok = d.transitions()
			return 1 << 0, ok
		case "initial":
			c.Initial, ok = d.str()
			return 1 << 1, ok
		case "upStates":
			c.UpStates, ok = d.strs()
			return 1 << 2, ok
		case "absorbing":
			c.Absorbing, ok = d.strs()
			return 1 << 3, ok
		case "measures":
			c.Measures, ok = d.strs()
			return 1 << 4, ok
		case "time":
			c.Time, ok = d.float()
			return 1 << 5, ok
		case "solver":
			c.Solver, ok = d.str()
			return 1 << 6, ok
		case "solverTol":
			c.SolverTol, ok = d.float()
			return 1 << 7, ok
		case "solverMaxIter":
			c.SolverMaxIter, ok = d.integer()
			return 1 << 8, ok
		case "solverOmega":
			c.SolverOmega, ok = d.float()
			return 1 << 9, ok
		case "lump":
			c.Lump, ok = d.str()
			return 1 << 10, ok
		}
		return 0, false
	})
}

// transitions decodes the transitions array. An empty array gives an
// empty non-nil slice, as encoding/json does. The slice is sized before
// decoding by the '{' left in the document, one per transition object
// (plus the few of any later section, and any inside a string), but to
// no more than one transition per minTransitionBytes of it, so bytes
// that are not transitions cannot make it outgrow the document. Past
// that size it doubles as it fills.
func (d *ctmcDecoder) transitions() ([]CTMCTransition, bool) {
	rest := d.b[d.i:]
	out := make([]CTMCTransition, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minTransitionBytes))
	ok := d.array(func() bool {
		var t CTMCTransition
		if !d.object(func(key []byte) (bit uint16, ok bool) {
			switch string(key) {
			case "from":
				t.From, ok = d.str()
				return 1 << 0, ok
			case "to":
				t.To, ok = d.str()
				return 1 << 1, ok
			case "rate":
				t.Rate, ok = d.float()
				return 1 << 2, ok
			}
			return 0, false
		}) {
			return false
		}
		if len(out) == cap(out) {
			out = slices.Grow(out, len(out)+1)
		}
		out = append(out, t)
		return true
	})
	return out, ok
}

// minTransitionBytes is the length of the shortest transition object
// that names both states and a rate, {"from":"","to":"","rate":0}.
const minTransitionBytes = len(`{"from":"","to":"","rate":0}`)

// strs decodes an array of strings; [] gives an empty non-nil slice.
func (d *ctmcDecoder) strs() ([]string, bool) {
	out := []string{}
	ok := d.array(func() bool {
		s, ok := d.str()
		out = append(out, s)
		return ok
	})
	return out, ok
}

// object consumes an object, handing each key to member with the cursor
// at its value. member decodes the value and returns the key's bit in a
// mask of the keys seen, or ok false for a key the Spec does not have or
// a value that fails. A repeated key, or malformed punctuation, declines
// too.
func (d *ctmcDecoder) object(member func(key []byte) (bit uint16, ok bool)) bool {
	if !d.lit('{') {
		return false
	}
	if d.lit('}') {
		return true
	}
	var seen uint16
	for d.i < len(d.b) {
		bit, ok := member(d.key())
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.lit('}') {
			return true
		}
		if !d.lit(',') {
			return false
		}
	}
	return false
}

// array consumes an array, calling elem to decode each element.
func (d *ctmcDecoder) array(elem func() bool) bool {
	if !d.lit('[') {
		return false
	}
	if d.lit(']') {
		return true
	}
	for d.i < len(d.b) {
		if !elem() {
			return false
		}
		if d.lit(']') {
			return true
		}
		if !d.lit(',') {
			return false
		}
	}
	return false
}

// ws skips JSON whitespace.
func (d *ctmcDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// lit skips whitespace and consumes c if it comes next.
func (d *ctmcDecoder) lit(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// raw consumes a string token of valid UTF-8 with no escapes and no
// control bytes and returns its contents, or ok false.
func (d *ctmcDecoder) raw() (s []byte, ok bool) {
	if !d.lit('"') {
		return nil, false
	}
	start := d.i
	ascii := true
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			s = d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		d.i++
	}
	return nil, false
}

// key consumes an object key and its colon. It returns nil when either
// is missing, which matches no field name.
func (d *ctmcDecoder) key() []byte {
	k, ok := d.raw()
	if !ok || !d.lit(':') {
		return nil
	}
	return k
}

// str consumes a string value, interned.
func (d *ctmcDecoder) str() (string, bool) {
	b, ok := d.raw()
	if !ok {
		return "", false
	}
	if s, hit := d.names[string(b)]; hit {
		return s, true
	}
	if d.names == nil {
		// Generated chains spend hundreds of bytes on each state's
		// transitions, so the document length sizes the table without
		// its growth steps; a wrong guess costs a few growths or spare
		// slots worth a few percent of the document.
		d.names = make(map[string]string, len(d.b)/512)
	}
	s := string(b)
	d.names[s] = s
	return s, true
}

// number consumes a token that follows the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns it.
func (d *ctmcDecoder) number() (num []byte, ok bool) {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		return nil, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			return nil, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *ctmcDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// float consumes a number into a float64 the way encoding/json does:
// strconv.ParseFloat(s, 64), declining on its range error.
func (d *ctmcDecoder) float() (float64, bool) {
	num, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// integer consumes a number into an int the way encoding/json does:
// strconv.ParseInt(s, 10, 64), declining on its syntax error (a fraction
// or exponent) or range error, or when the value overflows int.
func (d *ctmcDecoder) integer() (int, bool) {
	num, ok := d.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	return int(n), err == nil && int64(int(n)) == n
}
