package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// decodeCacheFile parses the bytes of a points.json file. It is a
// single-pass reader for the one schema Save writes (cacheFile →
// cacheSection → Point), with no reflection. Opening the cache is most of
// a warm replay's work, and this reader takes about a third of
// encoding/json's time on the same file.
//
// It accepts only what encoding/json accepts and decodes it to the same
// value; floats go through the same strconv call, so they come back
// bit-identical. It rejects more than encoding/json does: invalid UTF-8,
// an unknown member name (including one that differs from a field's
// only in case), a repeated member name or map key, a null anywhere
// MarshalIndent never writes one, and a number strconv rejects. A file
// whose first member is a schema other than cacheSchema is returned
// carrying only that schema, without reading the rest.
func decodeCacheFile(data []byte) (*cacheFile, error) {
	d := &cacheDecoder{data: data}
	f := &cacheFile{}
	var seen uint32
	err := d.members(func(name []byte) (err error) {
		var k uint
		switch string(name) {
		case "schema":
			k, err = 0, d.str(&f.Schema)
			if err == nil && seen == 0 && f.Schema != cacheSchema {
				return errStaleSchema
			}
		case "experiments":
			k, err = 1, decodeMap(d, &f.Experiments, d.section)
		default:
			return d.errorf("unknown member %q", name)
		}
		if err == nil {
			err = d.once(&seen, k, name)
		}
		return err
	})
	if errors.Is(err, errStaleSchema) {
		return &cacheFile{Schema: f.Schema}, nil
	}
	if err != nil {
		return nil, err
	}
	if d.ws(); d.pos != len(d.data) {
		return nil, d.errorf("trailing bytes after the top-level object")
	}
	return f, nil
}

// errStaleSchema stops decodeCacheFile at a leading foreign schema.
var errStaleSchema = errors.New("stale schema")

// cacheDecoder is decodeCacheFile's cursor over the file.
type cacheDecoder struct {
	data []byte
	pos  int
	// utils is scratch for one util array; each decoded array is copied
	// out at its exact length.
	utils []float64
}

func (d *cacheDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (d *cacheDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end.
func (d *cacheDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// next skips whitespace and consumes one byte, returning 0 at the end.
func (d *cacheDecoder) next() byte {
	d.ws()
	c := d.peek()
	if c != 0 {
		d.pos++
	}
	return c
}

// null consumes a null literal if one is next.
func (d *cacheDecoder) null() bool {
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// once marks struct member k as seen, rejecting a repeat: encoding/json
// would silently let the later one win.
func (d *cacheDecoder) once(seen *uint32, k uint, name []byte) error {
	if *seen&(1<<k) != 0 {
		return d.errorf("repeated member %q", name)
	}
	*seen |= 1 << k
	return nil
}

// members reads an object, calling member with each name when d.pos is
// at the member's value. member must consume the value.
func (d *cacheDecoder) members(member func(name []byte) error) error {
	if d.next() != '{' {
		return d.errorf("want an object")
	}
	if d.ws(); d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		d.ws()
		name, err := d.token()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.errorf("want ':' after member name")
		}
		d.ws()
		if err := member(name); err != nil {
			return err
		}
		switch d.next() {
		case ',':
		case '}':
			return nil
		default:
			return d.errorf("want ',' or '}' after member")
		}
	}
}

// token reads the string at d.pos and returns its decoded bytes. Without
// a backslash they are the bytes between the quotes, not a copy. Raw
// control characters and invalid UTF-8 are rejected.
func (d *cacheDecoder) token() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("want a string")
	}
	start, esc := d.pos, false
	for d.pos++; d.pos < len(d.data); {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			if !esc {
				return d.data[start+1 : d.pos-1], nil
			}
			// encoding/json stays the package's only escape decoder.
			var s string
			err := json.Unmarshal(d.data[start:d.pos], &s)
			return []byte(s), err
		case c == '\\':
			esc = true
			d.pos += 2 // the escaped byte cannot end the string
		case c < 0x20:
			return nil, d.errorf("control character in string")
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, n := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && n == 1 {
				return nil, d.errorf("invalid UTF-8 in string")
			}
			d.pos += n
		}
	}
	return nil, d.errorf("unterminated string")
}

func (d *cacheDecoder) str(dst *string) error {
	b, err := d.token()
	*dst = string(b)
	return err
}

// number scans a token in JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *cacheDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	if d.peek() == '0' {
		d.pos++
	} else if !d.digits() {
		return nil, d.errorf("want a number")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.errorf("want digits after '.'")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.errorf("want digits in exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *cacheDecoder) digits() bool {
	start := d.pos
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.pos++
	}
	return d.pos > start
}

func (d *cacheDecoder) float(dst *float64) error {
	tok, err := d.number()
	if err == nil {
		*dst, err = strconv.ParseFloat(string(tok), 64)
	}
	return err
}

func (d *cacheDecoder) int(dst *int) error {
	tok, err := d.number()
	if err == nil {
		var n int64
		n, err = strconv.ParseInt(string(tok), 10, strconv.IntSize)
		*dst = int(n)
	}
	return err
}

// floats reads a util array: null is a nil slice, [] an empty one.
func (d *cacheDecoder) floats(dst *[]float64) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.next() != '[' {
		return d.errorf("want an array")
	}
	buf := d.utils[:0]
	if d.ws(); d.peek() == ']' {
		d.pos++
	} else {
		for {
			d.ws()
			var v float64
			if err := d.float(&v); err != nil {
				return err
			}
			buf = append(buf, v)
			if c := d.next(); c == ']' {
				break
			} else if c != ',' {
				return d.errorf("want ',' or ']' in array")
			}
		}
	}
	d.utils = buf
	*dst = make([]float64, len(buf))
	copy(*dst, buf)
	return nil
}

// decodeMap reads an object into a fresh map, or null into a nil one,
// with value reading each member's value. A repeated key is rejected:
// encoding/json would let the later value win.
func decodeMap[V any](d *cacheDecoder, dst *map[string]V, value func() (V, error)) error {
	if d.null() {
		return nil
	}
	m := map[string]V{}
	*dst = m
	return d.members(func(key []byte) error {
		if _, dup := m[string(key)]; dup {
			return d.errorf("repeated key %q", key)
		}
		v, err := value()
		if err != nil {
			return err
		}
		m[string(key)] = v
		return nil
	})
}

// section reads one experiment's section, or null.
func (d *cacheDecoder) section() (*cacheSection, error) {
	if d.null() {
		return nil, nil
	}
	s := &cacheSection{}
	var seen uint32
	return s, d.members(func(name []byte) (err error) {
		var k uint
		switch string(name) {
		case "fingerprint":
			k, err = 0, d.str(&s.Fingerprint)
		case "points":
			k, err = 1, decodeMap(d, &s.Points, d.point)
		default:
			return d.errorf("unknown member %q", name)
		}
		if err == nil {
			err = d.once(&seen, k, name)
		}
		return err
	})
}

// point reads one Point. Its member names are Point's field names, as
// MarshalIndent writes them; TestCacheFileDecode fails when a new field
// is missing here.
func (d *cacheDecoder) point() (Point, error) {
	var p Point
	var seen uint32
	err := d.members(func(name []byte) (err error) {
		var k uint
		switch string(name) {
		case "Cores":
			k, err = 0, d.int(&p.Cores)
		case "Variant":
			k, err = 1, d.str(&p.Variant)
		case "PerCore":
			k, err = 2, d.float(&p.PerCore)
		case "UserMicros":
			k, err = 3, d.float(&p.UserMicros)
		case "SysMicros":
			k, err = 4, d.float(&p.SysMicros)
		case "DRAMUtil":
			k, err = 5, d.floats(&p.DRAMUtil)
		case "LinkUtil":
			k, err = 6, d.floats(&p.LinkUtil)
		case "Retries":
			k, err = 7, d.float(&p.Retries)
		case "Dups":
			k, err = 8, d.float(&p.Dups)
		case "OfferedPerCore":
			k, err = 9, d.float(&p.OfferedPerCore)
		case "P50Micros":
			k, err = 10, d.float(&p.P50Micros)
		case "P99Micros":
			k, err = 11, d.float(&p.P99Micros)
		case "P999Micros":
			k, err = 12, d.float(&p.P999Micros)
		default:
			return d.errorf("unknown member %q", name)
		}
		if err == nil {
			err = d.once(&seen, k, name)
		}
		return err
	})
	return p, err
}
