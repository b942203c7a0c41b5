// Package cpushare turns a CPU profile into measured shares of this
// module's packages and functions. It decodes the gzip'd protocol buffer
// that runtime/pprof writes — only the sample, location, line, function and
// string-table fields, with a hand-rolled varint reader — and charges each
// sample to its innermost frame in module freeride, an inlined frame
// counting as its own function. A sample with no such frame is charged to
// runtime. Each share carries a ±2σ binomial interval, so two profiles'
// shares can be told apart from sampling noise.
package cpushare

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// module is the module whose frames take samples; Runtime is where a sample
// with no frame in it goes.
const (
	module  = "freeride"
	Runtime = "runtime"
)

// Share is one package's or function's part of a profile.
type Share struct {
	Name    string
	Samples int64
	// Share is Samples over the profile's total; Lo and Hi are Share ∓ 2σ
	// of the binomial, clamped to [0, 1].
	Share, Lo, Hi float64
}

// Shares is a profile's attribution. Each list is sorted by descending
// count, then name, and its counts sum to Samples.
type Shares struct {
	Samples   int64
	Packages  []Share
	Functions []Share
}

// Read decodes a gzip'd CPU profile and attributes its samples.
func Read(r io.Reader) (*Shares, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpushare: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpushare: %w", err)
	}
	return attribute(data)
}

// attribute attributes the samples of an uncompressed profile.proto
// message. Each sample counts its first value, which a runtime/pprof CPU
// profile makes the number of samples taken of that stack.
func attribute(data []byte) (*Shares, error) {
	var samples [][]uint64        // location ids, leaf first, then the count
	funcs := map[uint64]int64{}   // function id → name's string index
	locs := map[uint64][]uint64{} // location id → function ids, innermost first
	var strs []string
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var ids, vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(&ids, v, b)
				case 2:
					return repeated(&vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				samples = append(samples, append(ids, vals[0]))
			}
			return err
		case 4: // Location
			var id uint64
			var lines []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs, fns := map[string]int64{}, map[string]int64{}
	var total int64
	for _, s := range samples {
		ids, n := s[:len(s)-1], int64(s[len(s)-1])
		fn := frame(ids, locs, funcs, strs)
		pkg := Runtime
		if fn != Runtime {
			pkg = pkgOf(fn)
		}
		pkgs[pkg] += n
		fns[fn] += n
		total += n
	}
	return &Shares{Samples: total, Packages: shares(pkgs, total), Functions: shares(fns, total)}, nil
}

// frame is the innermost function of a stack in module, or Runtime.
func frame(ids []uint64, locs map[uint64][]uint64, funcs map[uint64]int64, strs []string) string {
	for _, id := range ids {
		for _, f := range locs[id] {
			i, ok := funcs[f]
			if !ok || i < 0 || i >= int64(len(strs)) {
				continue
			}
			if name := strs[i]; strings.HasPrefix(name, module+".") || strings.HasPrefix(name, module+"/") {
				return name
			}
		}
	}
	return Runtime
}

// pkgOf is the last element of a qualified function name's import path:
// "freeride/internal/pipeline.(*chunk).nextOp" → "pipeline",
// "freeride.(*Session).Run" → "freeride". Type arguments, which may hold
// paths of their own, are cut first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	fn = fn[strings.LastIndexByte(fn, '/')+1:]
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

func shares(counts map[string]int64, total int64) []Share {
	out := make([]Share, 0, len(counts))
	for name, k := range counts {
		p := float64(k) / float64(total)
		d := 2 * math.Sqrt(p*(1-p)/float64(total))
		out = append(out, Share{Name: name, Samples: k, Share: p, Lo: max(0, p-d), Hi: min(1, p+d)})
	}
	slices.SortFunc(out, func(a, b Share) int {
		return cmp.Or(cmp.Compare(b.Samples, a.Samples), strings.Compare(a.Name, b.Name))
	})
	return out
}

// Print writes the sample count and every package's and function's share.
func (s *Shares) Print(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "samples %d\n\npackage\n", s.Samples)
	row := func(sh Share) {
		fmt.Fprintf(&b, "%8d  %.4f  [%.4f, %.4f]  %s\n", sh.Samples, sh.Share, sh.Lo, sh.Hi, sh.Name)
	}
	for _, sh := range s.Packages {
		row(sh)
	}
	b.WriteString("\nfunction\n")
	for _, sh := range s.Functions {
		row(sh)
	}
	_, err := w.Write(b.Bytes())
	return err
}

var errTruncated = errors.New("cpushare: truncated profile")

// uvarint decodes a base-128 varint from the front of b and returns it with
// its length.
func uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields walks the fields of one message, calling fn with each field's
// number and either its varint value or its length-delimited bytes. Fixed
// 32- and 64-bit fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n, err := uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n, err = uvarint(b); err != nil {
				return err
			}
		case 1:
			n = 8
		case 2:
			if v, n, err = uvarint(b); err != nil {
				return err
			}
			if v > uint64(len(b)-n) {
				return errTruncated
			}
			data, n, v = b[n:n+int(v)], n+int(v), 0
		case 5:
			n = 4
		default:
			return fmt.Errorf("cpushare: wire type %d", key&7)
		}
		if n > len(b) {
			return errTruncated
		}
		b = b[n:]
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field's values, packed (b) or not (v).
func repeated(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		v, n, err := uvarint(b)
		if err != nil {
			return err
		}
		*dst, b = append(*dst, v), b[n:]
	}
	return nil
}
