package cpushare

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// TestProfileGolden attributes a checked-in profile — `go test -run '^$'
// -bench 'BenchmarkEpochLadder/1f1b' -benchtime=300x -cpuprofile` on
// internal/pipeline — and pins every share against its golden. Every
// sample lands in exactly one package and one function, so both lists'
// counts sum to the total and their shares to 1.
func TestProfileGolden(t *testing.T) {
	f, err := os.Open("testdata/epoch_ladder.prof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples < 100 {
		t.Fatalf("%d samples; the checked-in profile has more", s.Samples)
	}
	for name, list := range map[string][]Share{"package": s.Packages, "function": s.Functions} {
		var n int64
		var sum float64
		for _, sh := range list {
			n += sh.Samples
			sum += sh.Share
			if sh.Lo > sh.Share || sh.Share > sh.Hi || sh.Lo < 0 || sh.Hi > 1 {
				t.Errorf("%s %s: share %v outside its interval [%v, %v]", name, sh.Name, sh.Share, sh.Lo, sh.Hi)
			}
		}
		if n != s.Samples || math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s shares count %d of %d samples and sum to %v, want all and 1", name, n, s.Samples, sum)
		}
	}
	var out bytes.Buffer
	if err := s.Print(&out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/epoch_ladder.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("shares differ from %s, which a deliberate change of the rule rewrites to:\n%s", golden, out.Bytes())
	}
}

// proto encodes protocol-buffer fields for hand-built profiles.
type proto []byte

func (p proto) varint(v uint64) proto {
	for ; v >= 0x80; v >>= 7 {
		p = append(p, byte(v)|0x80)
	}
	return append(p, byte(v))
}

func (p proto) int(num int, v uint64) proto { return p.varint(uint64(num) << 3).varint(v) }

func (p proto) bytes(num int, b []byte) proto {
	return append(p.varint(uint64(num)<<3|2).varint(uint64(len(b))), b...)
}

// TestAttributionRule pins the rule on a hand-built profile: a sample goes
// to its innermost frame in the module, an inlined frame counts as its own
// function, a generic function's package is read before its type
// arguments, and a stack with no module frame goes to runtime. Location
// ids arrive packed and unpacked; fixed-width fields are skipped.
func TestAttributionRule(t *testing.T) {
	names := []string{"",
		"runtime.mallocgc",                                                                // 1
		"freeride/internal/simtime.(*Virtual).Step",                                       // 2
		"freeride/internal/pipeline.(*chunk).nextOp",                                      // 3
		"freeride/internal/pipeline.(*chunk).bindSpec",                                    // 4
		"freeride.(*Session).Run",                                                         // 5
		"freeride/internal/fifo.(*Queue[go.shape.*freeride/internal/simgpu.kernel]).Push", // 6
		"runtime.goexit",                                                                  // 7
	}
	var prof proto
	for id := uint64(1); id < uint64(len(names)); id++ {
		prof = prof.bytes(5, proto{}.int(1, id).int(2, id))
	}
	// Location 10 inlines bindSpec into nextOp; location 11 is Step;
	// 12 is runtime only; 13 the root package; 14 the generic.
	line := func(fn uint64) []byte { return proto{}.int(1, fn).int(2, 42) }
	prof = prof.bytes(4, proto{}.int(1, 10).bytes(4, line(4)).bytes(4, line(3)))
	prof = prof.bytes(4, proto{}.int(1, 11).bytes(4, line(2)))
	prof = prof.bytes(4, proto{}.int(1, 12).bytes(4, line(1)).bytes(4, line(7)))
	prof = prof.bytes(4, proto{}.int(1, 13).bytes(4, line(5)))
	prof = prof.bytes(4, proto{}.int(1, 14).bytes(4, line(6)))
	packed := func(ids ...uint64) []byte {
		var p proto
		for _, id := range ids {
			p = p.varint(id)
		}
		return p
	}
	sample := func(count uint64, ids ...uint64) proto {
		return proto{}.bytes(1, packed(ids...)).bytes(2, packed(count, count*1e7))
	}
	prof = prof.bytes(2, sample(3, 12, 10, 11)) // mallocgc under bindSpec inlined in nextOp
	prof = prof.bytes(2, sample(2, 11, 13))     // Step under Session.Run
	prof = prof.bytes(2, sample(4, 12))         // runtime only
	unpacked := proto{}.int(1, 14).int(1, 13).bytes(2, packed(1, 1e7))
	prof = prof.bytes(2, unpacked)                             // the generic, its ids unpacked
	prof = append(prof.varint(9<<3|1), 1, 2, 3, 4, 5, 6, 7, 8) // a fixed64 field
	for _, n := range names {
		prof = prof.bytes(6, []byte(n))
	}
	s, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, sh := range s.Packages {
		got["pkg "+sh.Name] = sh.Samples
	}
	for _, sh := range s.Functions {
		got[sh.Name] = sh.Samples
	}
	want := map[string]int64{
		"pkg pipeline": 3, "pkg simtime": 2, "pkg runtime": 4, "pkg fifo": 1,
		names[4]: 3, names[2]: 2, Runtime: 4, names[6]: 1,
	}
	if s.Samples != 10 || len(got) != len(want) {
		t.Fatalf("%d samples, attribution %v; want 10, %v", s.Samples, got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: %d samples, want %d (all: %v)", k, got[k], n, got)
		}
	}
	if _, err := attribute(prof[:len(prof)-3]); err == nil {
		t.Error("a truncated profile decoded without an error")
	}
}
