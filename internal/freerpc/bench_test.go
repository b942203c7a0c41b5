package freerpc

import (
	"testing"
	"time"

	"freeride/internal/simtime"
)

type benchParams struct {
	A int64  `json:"a"`
	B int64  `json:"b"`
	S string `json:"s"`
}

func benchPair(b *testing.B) (*simtime.Virtual, *Peer, *Peer, *Mux) {
	b.Helper()
	eng := simtime.NewVirtual()
	mux := NewMux()
	c1, c2 := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)
	server := NewPeer(eng, c2, mux)
	_ = server
	return eng, client, server, mux
}

// BenchmarkRPC measures a full Go round-trip (request + typed response)
// over the in-memory transport — the manager↔worker hot path. On a MemPipe
// this involves no JSON at all.
func BenchmarkRPC(b *testing.B) {
	eng, client, _, mux := benchPair(b)
	HandleFunc(mux, "Echo", func(p benchParams) (any, error) { return p, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Go("Echo", benchParams{A: 1, B: 2, S: "x"}, 0, func(result any, err error) {
			if err != nil {
				b.Fatal(err)
			}
		})
		eng.MustDrain(4)
	}
}

// BenchmarkRPCNotify measures one-way notifications (bubble reports).
func BenchmarkRPCNotify(b *testing.B) {
	eng, client, _, mux := benchPair(b)
	var got int64
	HandleFunc(mux, "Report", func(p benchParams) (any, error) { got += p.A; return nil, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Notify("Report", benchParams{A: 1}); err != nil {
			b.Fatal(err)
		}
		eng.MustDrain(2)
	}
	if got != int64(b.N) {
		b.Fatalf("delivered %d of %d notifications", got, b.N)
	}
}
