package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// JSON returns the snapshot as WriteJSON renders it, in a string
// allocated once at its final size. It panics on a NaN or infinite
// value, which JSON cannot carry and no simulation reports.
func (s Snapshot) JSON() string {
	out, err := renderString(s.WriteJSON)
	if err != nil {
		panic(err)
	}
	return out
}

// Prometheus returns the snapshot as WritePrometheus renders it, in a
// string allocated once at its final size.
func (s Snapshot) Prometheus() string {
	out, _ := renderString(s.WritePrometheus) // only w's errors, and neither writer fails
	return out
}

// renderString runs write twice: once to count its bytes, then into a
// builder grown to exactly that size, so the result is the only large
// allocation.
func renderString(write func(io.Writer) error) (string, error) {
	var n byteCount
	if err := write(&n); err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(int(n))
	err := write(&b)
	return b.String(), err
}

// byteCount is an io.Writer that only counts what it is given.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// renderer appends a rendering to one buffer and hands the buffer to w
// each time a sample leaves it past flushAt bytes, so a rendering holds
// about flushAt bytes however large the snapshot is.
type renderer struct {
	w   io.Writer
	b   []byte
	err error
}

const flushAt = 32 << 10

// sampleDone flushes the buffer once it has grown past flushAt.
func (r *renderer) sampleDone() {
	if len(r.b) >= flushAt {
		r.flush()
	}
}

// flush writes the buffer out, unless an earlier step failed, and
// reports the first failure.
func (r *renderer) flush() error {
	if r.err == nil && len(r.b) > 0 {
		_, r.err = r.w.Write(r.b)
	}
	r.b = r.b[:0]
	return r.err
}

// WriteJSON writes the snapshot as indented JSON: byte for byte what
// json.MarshalIndent(s, "", "  ") renders, plus a newline. A NaN or
// infinite value, which JSON cannot carry, stops it with an error after
// part of the rendering has been written, as does an error from w.
func (s Snapshot) WriteJSON(w io.Writer) error {
	r := renderer{w: w, b: make([]byte, 0, 2*flushAt)}
	r.b = append(r.b, "{\n  \"families\": "...)
	switch {
	case s.Families == nil:
		r.b = append(r.b, "null"...)
	case len(s.Families) == 0:
		r.b = append(r.b, "[]"...)
	default:
		r.b = append(r.b, '[')
		for i := range s.Families {
			if i > 0 {
				r.b = append(r.b, ',')
			}
			r.jsonFamily(&s.Families[i])
			if r.err != nil {
				return r.err
			}
		}
		r.b = append(r.b, "\n  ]"...)
	}
	r.b = append(r.b, "\n}\n"...)
	return r.flush()
}

// jsonFamily appends one element of the families array.
func (r *renderer) jsonFamily(f *Family) {
	r.b = append(r.b, "\n    {\n      \"name\": "...)
	r.b = appendJSONString(r.b, f.Name)
	if f.Help != "" {
		r.b = append(r.b, ",\n      \"help\": "...)
		r.b = appendJSONString(r.b, f.Help)
	}
	r.b = append(r.b, ",\n      \"kind\": "...)
	r.b = appendJSONString(r.b, string(f.Kind))
	r.b = append(r.b, ",\n      \"samples\": "...)
	switch {
	case f.Samples == nil:
		r.b = append(r.b, "null"...)
	case len(f.Samples) == 0:
		r.b = append(r.b, "[]"...)
	default:
		r.b = append(r.b, '[')
		for i := range f.Samples {
			if i > 0 {
				r.b = append(r.b, ',')
			}
			r.jsonSample(&f.Samples[i])
			if r.err != nil {
				return
			}
			r.sampleDone()
		}
		r.b = append(r.b, "\n      ]"...)
	}
	r.b = append(r.b, "\n    }"...)
}

// jsonSample appends one element of a samples array, leaving out the
// fields omitempty drops: empty labels and buckets, and zero numbers.
func (r *renderer) jsonSample(sm *Sample) {
	r.b = append(r.b, "\n        {"...)
	sep := "\n          \""
	field := func(name string) {
		r.b = append(r.b, sep...)
		r.b = append(r.b, name...)
		r.b = append(r.b, "\": "...)
		sep = ",\n          \""
	}
	if len(sm.Labels) > 0 {
		field("labels")
		r.b = append(r.b, '[')
		for i, l := range sm.Labels {
			if i > 0 {
				r.b = append(r.b, ',')
			}
			r.b = append(r.b, "\n            {\n              \"key\": "...)
			r.b = appendJSONString(r.b, l.Key)
			r.b = append(r.b, ",\n              \"value\": "...)
			r.b = appendJSONString(r.b, l.Value)
			r.b = append(r.b, "\n            }"...)
		}
		r.b = append(r.b, "\n          ]"...)
	}
	if sm.Value != 0 {
		field("value")
		if math.IsNaN(sm.Value) || math.IsInf(sm.Value, 0) {
			r.err = fmt.Errorf("metrics: sample value %v has no JSON form", sm.Value)
			return
		}
		r.b = appendJSONFloat(r.b, sm.Value)
	}
	h := sm.hist()
	if len(h.Buckets) > 0 {
		field("buckets")
		r.b = append(r.b, '[')
		for i, bk := range h.Buckets {
			if i > 0 {
				r.b = append(r.b, ',')
			}
			r.b = append(r.b, "\n            {\n              \"le\": "...)
			r.b = strconv.AppendInt(r.b, bk.Le, 10)
			r.b = append(r.b, ",\n              \"count\": "...)
			r.b = strconv.AppendUint(r.b, bk.Count, 10)
			r.b = append(r.b, "\n            }"...)
		}
		r.b = append(r.b, "\n          ]"...)
	}
	if h.Sum != 0 {
		field("sum")
		r.b = strconv.AppendInt(r.b, h.Sum, 10)
	}
	if h.Count != 0 {
		field("count")
		r.b = strconv.AppendUint(r.b, h.Count, 10)
	}
	if sep[0] == '\n' {
		r.b = append(r.b, '}') // no fields: MarshalIndent keeps {} compact
	} else {
		r.b = append(r.b, "\n        }"...)
	}
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// needs no escape is copied as it is; anything else — quotes,
// backslashes, the HTML-sensitive <>&, control bytes, non-ASCII —
// goes through encoding/json, so every escape is exactly its own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a finite v the way encoding/json does: 'f'
// form, or 'e' form below 1e-6 or from 1e21 up, with a two-digit
// negative exponent shortened (e-09 to e-9).
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Histogram le edges and sums are printed in seconds (values are
// picoseconds internally), matching Prometheus latency conventions. It
// fails only when w does.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	r := renderer{w: w, b: make([]byte, 0, 2*flushAt)}
	for i := range s.Families {
		f := &s.Families[i]
		if f.Help != "" {
			r.b = append(r.b, "# HELP "...)
			r.b = append(r.b, f.Name...)
			r.b = append(r.b, ' ')
			r.b = append(r.b, f.Help...)
			r.b = append(r.b, '\n')
		}
		r.b = append(r.b, "# TYPE "...)
		r.b = append(r.b, f.Name...)
		r.b = append(r.b, ' ')
		r.b = append(r.b, f.Kind...)
		r.b = append(r.b, '\n')
		for j := range f.Samples {
			sm := &f.Samples[j]
			if f.Kind == KindHistogram {
				h := sm.hist()
				var cum uint64
				for _, bk := range h.Buckets {
					cum += bk.Count
					r.b = append(r.b, f.Name...)
					r.b = append(r.b, "_bucket{"...)
					if len(sm.Labels) > 0 {
						r.promLabelPairs(sm.Labels)
						r.b = append(r.b, ',')
					}
					r.b = append(r.b, `le="`...)
					if bk.Le == BucketInf {
						r.b = append(r.b, "+Inf"...)
					} else {
						r.b = appendPromFloat(r.b, float64(bk.Le)/1e12)
					}
					r.b = append(r.b, "\"} "...)
					r.b = strconv.AppendUint(r.b, cum, 10)
					r.b = append(r.b, '\n')
				}
				r.promSeries(f.Name, "_sum", sm.Labels)
				r.b = appendPromFloat(r.b, float64(h.Sum)/1e12)
				r.b = append(r.b, '\n')
				r.promSeries(f.Name, "_count", sm.Labels)
				r.b = strconv.AppendUint(r.b, h.Count, 10)
				r.b = append(r.b, '\n')
			} else {
				r.promSeries(f.Name, "", sm.Labels)
				r.b = appendPromFloat(r.b, sm.Value)
				r.b = append(r.b, '\n')
			}
			r.sampleDone()
		}
		if r.err != nil {
			return r.err
		}
	}
	return r.flush()
}

// promSeries appends a series name (the family name plus suffix), its
// {k="v",...} label block when labeled, and the space before its value.
func (r *renderer) promSeries(name, suffix string, ls Labels) {
	r.b = append(r.b, name...)
	r.b = append(r.b, suffix...)
	if len(ls) > 0 {
		r.b = append(r.b, '{')
		r.promLabelPairs(ls)
		r.b = append(r.b, '}')
	}
	r.b = append(r.b, ' ')
}

// promLabelPairs appends k="v" pairs joined by commas, escaping each
// value's backslashes, quotes and newlines.
func (r *renderer) promLabelPairs(ls Labels) {
	for i, l := range ls {
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.b = append(r.b, l.Key...)
		r.b = append(r.b, `="`...)
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\', '"':
				r.b = append(r.b, '\\', c)
			case '\n':
				r.b = append(r.b, `\n`...)
			default:
				r.b = append(r.b, c)
			}
		}
		r.b = append(r.b, '"')
	}
}

// appendPromFloat prints integral values without an exponent or
// trailing zeros so counters read naturally ("42", not "4.2e+01").
func appendPromFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
