// Micro-benchmarks for the clean-page fast path, per codec: loads from
// untainted pages (bulk copy), loads from tainted pages (the reference
// per-word decode path), and partial-word stores (which skip the RMW
// decode when the page is clean).
package simmem_test

import (
	"testing"

	"hrmsim/internal/ecc"
	"hrmsim/internal/simmem"
)

const benchSpan = 64 // bytes per operation

// newBenchSpace maps one protected (or unprotected) region and fills it
// with data through the encode path.
func newBenchSpace(b *testing.B, codec simmem.Codec) (*simmem.AddressSpace, *simmem.Region) {
	b.Helper()
	as, err := simmem.New(simmem.Config{PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	r, err := as.AddRegion(simmem.RegionSpec{
		Name: "bench", Kind: simmem.RegionHeap, Size: 1 << 16, Codec: codec,
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := 0; off < r.Size(); off += len(buf) {
		if err := as.Store(r.Base()+simmem.Addr(off), buf); err != nil {
			b.Fatal(err)
		}
	}
	return as, r
}

// taintAll marks every granule of every page tainted without changing
// any sensed byte: bit 0 of each granule's first byte is stuck at the
// value it already stores, so tainted-path benchmarks still decode
// clean on every codec while the whole space runs the slow path.
func taintAll(b *testing.B, as *simmem.AddressSpace, r *simmem.Region, codec simmem.Codec) {
	b.Helper()
	g := 64
	if codec != nil {
		g = codec.WordBytes()
	}
	var v [1]byte
	for off := 0; off < r.Size(); off += g {
		addr := r.Base() + simmem.Addr(off)
		if err := as.ReadRaw(addr, v[:]); err != nil {
			b.Fatal(err)
		}
		if err := as.StickBit(addr, 0, int(v[0]&1)); err != nil {
			b.Fatal(err)
		}
	}
	if got := as.TaintedPages(); got != r.PageCount() {
		b.Fatalf("tainted %d of %d pages", got, r.PageCount())
	}
}

func benchLoad(b *testing.B, codec simmem.Codec, tainted bool) {
	as, r := newBenchSpace(b, codec)
	if tainted {
		taintAll(b, as, r, codec)
	}
	buf := make([]byte, benchSpan)
	span := r.Size() - benchSpan
	b.SetBytes(benchSpan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := r.Base() + simmem.Addr(i*benchSpan%span)
		if err := as.Load(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
	if tainted == (as.FastPathLoads() > 0) {
		b.Fatalf("fast-path loads = %d with tainted=%v", as.FastPathLoads(), tainted)
	}
}

func benchCodecs() []struct {
	name  string
	codec simmem.Codec
} {
	return []struct {
		name  string
		codec simmem.Codec
	}{
		{"noecc", nil},
		{"parity", ecc.NewParity()},
		{"secded", ecc.NewSECDED()},
		{"dected", ecc.NewDECTED()},
		{"chipkill", ecc.NewChipkill()},
		{"mirror", ecc.NewMirror()},
	}
}

func BenchmarkLoadClean(b *testing.B) {
	for _, tc := range benchCodecs() {
		b.Run(tc.name, func(b *testing.B) { benchLoad(b, tc.codec, false) })
	}
}

func BenchmarkLoadTainted(b *testing.B) {
	for _, tc := range benchCodecs() {
		b.Run(tc.name, func(b *testing.B) { benchLoad(b, tc.codec, true) })
	}
}

// BenchmarkStorePartial writes 4 bytes at an unaligned offset, the case
// where protected stores must read-modify-write the covering codeword.
func BenchmarkStorePartial(b *testing.B) {
	for _, tc := range benchCodecs() {
		for _, state := range []struct {
			name    string
			tainted bool
		}{{"clean", false}, {"tainted", true}} {
			b.Run(tc.name+"/"+state.name, func(b *testing.B) {
				as, r := newBenchSpace(b, tc.codec)
				if state.tainted {
					taintAll(b, as, r, tc.codec)
				}
				data := []byte{1, 2, 3, 4}
				span := r.Size() - 8
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr := r.Base() + simmem.Addr(i*8%span) + 3
					if err := as.Store(addr, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// scalarAddr walks the region in 8-byte steps, one typed access per
// step, so every op stays inside one page and one 8-byte-aligned slot.
// The region size is a power of two (newBenchSpace), so the wrap is a
// mask rather than a division.
func scalarAddr(r *simmem.Region, i int) simmem.Addr {
	return r.Base() + simmem.Addr(i*8&(r.Size()-1))
}

// BenchmarkLoadU64Clean is one typed 8-byte load from an untainted page
// through a warm accessor: the front end's fast check, per codec.
func BenchmarkLoadU64Clean(b *testing.B) {
	for _, tc := range benchCodecs() {
		b.Run(tc.name, func(b *testing.B) {
			as, r := newBenchSpace(b, tc.codec)
			acc := as.NewAccessor()
			var sum uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := acc.LoadU64(scalarAddr(r, i))
				if err != nil {
					b.Fatal(err)
				}
				sum += v
			}
			if sum == 0 || as.FastPathLoads() == 0 {
				b.Fatalf("sum %d, fast-path loads %d", sum, as.FastPathLoads())
			}
		})
	}
}

// BenchmarkStoreU64Clean is one typed 8-byte store to an untainted page
// through a warm accessor, per codec: one whole codeword under the 8-byte
// codecs, half of one under chipkill's 16-byte word, where the store is a
// read-modify-write.
func BenchmarkStoreU64Clean(b *testing.B) {
	for _, tc := range benchCodecs() {
		b.Run(tc.name, func(b *testing.B) {
			as, r := newBenchSpace(b, tc.codec)
			acc := as.NewAccessor()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := acc.StoreU64(scalarAddr(r, i), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
