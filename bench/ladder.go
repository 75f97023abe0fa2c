package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"hrmsim/internal/ecc"
	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

// The ladder: each rung times one layer's public function in a tight
// loop, so a serving request's cost reads as a subtraction between rungs
// (codec → simmem span → kvstore.Get → kvnode.Dispatch → TCP). It does
// not depend on the workload, and every traced run measures it.

// sink keeps the compiler from discarding a measured call's result.
var sink uint64

// perCallNs times fn(iters) rounds times and returns the median cost of
// one call in nanoseconds.
func perCallNs(sc scale, fn func(iters int)) float64 {
	samples := make([]float64, 0, sc.ladderRounds)
	for r := 0; r < sc.ladderRounds; r++ {
		t0 := time.Now()
		fn(sc.ladderIters)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(sc.ladderIters))
	}
	return median(samples)
}

func ladder(r *result, o options) error {
	ladderECC(r, o.sc)
	if err := ladderSimmem(r, o.sc); err != nil {
		return fmt.Errorf("simmem ladder: %w", err)
	}
	if err := ladderKV(r, o); err != nil {
		return fmt.Errorf("kv ladder: %w", err)
	}
	return nil
}

func ladderECC(r *result, sc scale) {
	codecs := []struct {
		name  string
		codec simmem.Codec
	}{
		{"parity", ecc.NewParity()},
		{"secded", ecc.NewSECDED()},
		{"dected", ecc.NewDECTED()},
		{"chipkill", ecc.NewChipkill()},
	}
	for _, c := range codecs {
		// A small ring of distinct codewords, so table lookups are not
		// all served by one cache line.
		const ring = 64
		rng := rand.New(rand.NewSource(7))
		w, k := c.codec.WordBytes(), c.codec.CheckBytes()
		clean := make([]byte, ring*w)
		rng.Read(clean)
		check := make([]byte, ring*k)
		for i := 0; i < ring; i++ {
			c.codec.Encode(clean[i*w:(i+1)*w], check[i*k:(i+1)*k])
		}
		flipped := append([]byte(nil), clean...)
		for i := 0; i < ring; i++ {
			flipped[i*w+i%w] ^= 1 << (i % 8)
		}
		data, chk := make([]byte, w), make([]byte, k)

		r.set("ecc."+c.name+".encode_ns", perCallNs(sc, func(iters int) {
			for i := 0; i < iters; i++ {
				j := i % ring
				c.codec.Encode(clean[j*w:(j+1)*w], chk)
			}
			sink += uint64(chk[0])
		}))
		// Decode may rewrite its arguments, so each call gets a copy;
		// the two copies are part of both decode rungs alike.
		decode := func(src []byte) func(int) {
			return func(iters int) {
				for i := 0; i < iters; i++ {
					j := i % ring
					copy(data, src[j*w:(j+1)*w])
					copy(chk, check[j*k:(j+1)*k])
					sink += uint64(c.codec.Decode(data, chk))
				}
			}
		}
		r.set("ecc."+c.name+".decode_clean_ns", perCallNs(sc, decode(clean)))
		r.set("ecc."+c.name+".decode_1bit_ns", perCallNs(sc, decode(flipped)))
	}
}

// ladderSimmem times Accessor.Load/Store of a 64-byte span (one kvstore
// value) in a SEC-DED region: clean spans, spans with one flipped bit
// (decoded and corrected on every load — corrections are not written
// back), and aligned stores.
func ladderSimmem(r *result, sc scale) error {
	const span, spans = 64, 1024
	as, err := simmem.New(simmem.Config{})
	if err != nil {
		return err
	}
	heap, err := as.AddRegion(simmem.RegionSpec{Name: "heap", Kind: simmem.RegionHeap, Size: 2 * span * spans, Codec: ecc.NewSECDED()})
	if err != nil {
		return err
	}
	acc := as.NewAccessor()
	buf := make([]byte, span)
	rand.New(rand.NewSource(7)).Read(buf)
	cleanBase, taintedBase := heap.Base(), heap.Base()+simmem.Addr(span*spans)
	for i := 0; i < 2*spans; i++ {
		if err := acc.Store(heap.Base()+simmem.Addr(i*span), buf); err != nil {
			return err
		}
	}
	for i := 0; i < spans; i++ {
		if err := as.FlipBit(taintedBase+simmem.Addr(i*span+(i%span)), i%8); err != nil {
			return err
		}
	}
	var failed error
	loads := func(base simmem.Addr) func(int) {
		return func(iters int) {
			for i := 0; i < iters; i++ {
				if err := acc.Load(base+simmem.Addr(i%spans*span), buf); err != nil {
					failed = err
				}
			}
			sink += uint64(buf[0])
		}
	}
	r.set("simmem.load64_clean_ns", perCallNs(sc, loads(cleanBase)))
	r.set("simmem.load64_tainted_ns", perCallNs(sc, loads(taintedBase)))
	r.set("simmem.store64_ns", perCallNs(sc, func(iters int) {
		for i := 0; i < iters; i++ {
			if err := acc.Store(cleanBase+simmem.Addr(i%spans*span), buf); err != nil {
				failed = err
			}
		}
	}))
	return failed
}

// ladderKV times kvstore.App.Get/Set and kvnode.Dispatch on a node of
// the serving workloads' size over one Zipf key stream, then Dispatch
// from two goroutines against one (the exclusion gate serializes
// commands, so the ratio shows what a second connection can add).
func ladderKV(r *result, o options) error {
	srv, err := kvnode.New(kvnode.Config{Keys: o.sc.keys, ECC: "secded", Seed: storeSeed, Registry: obsv.NewRegistry()})
	if err != nil {
		return err
	}
	app := srv.App()
	const ring = 4096
	rng := rand.New(rand.NewSource(splitmix(o.seed, 100)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(o.sc.keys-1))
	keys := make([]uint64, ring)
	gets, sets := make([]string, ring), make([]string, ring)
	for i := range keys {
		keys[i] = zipf.Uint64()
		gets[i] = "get " + strconv.FormatUint(keys[i], 10)
		sets[i] = "set " + strconv.FormatUint(keys[i], 10) + " 1"
	}
	var failed error
	get := perCallNs(o.sc, func(iters int) {
		for i := 0; i < iters; i++ {
			_, v, err := app.Get(keys[i%ring])
			if err != nil {
				failed = err
				continue
			}
			sink += uint64(v[0])
		}
	})
	set := perCallNs(o.sc, func(iters int) {
		for i := 0; i < iters; i++ {
			if err := app.Set(keys[i%ring], 1); err != nil {
				failed = err
			}
		}
	})
	dispatch := func(cmds []string) func(int) {
		return func(iters int) {
			for i := 0; i < iters; i++ {
				sink += uint64(len(srv.Dispatch(cmds[i%ring])))
			}
		}
	}
	dget := perCallNs(o.sc, dispatch(gets))
	dset := perCallNs(o.sc, dispatch(sets))
	r.set("kvstore.get_ns", get)
	r.set("kvstore.set_ns", set)
	r.set("kvnode.dispatch_get_ns", dget)
	r.set("kvnode.dispatch_set_ns", dset)
	r.set("kvnode.parse_format_ns", dget-get)

	// Dispatch throughput for a fixed slice of time, from g goroutines.
	throughput := func(g int) float64 {
		var wg sync.WaitGroup
		counts := make([]int, g)
		t0 := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * 7; time.Since(t0) < o.sc.gateSlice; i++ {
					for k := 0; k < 16; k++ { // check the clock every 16 commands
						srv.Dispatch(gets[(i*16+k)%ring])
						counts[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, c := range counts {
			total += c
		}
		return float64(total) / time.Since(t0).Seconds()
	}
	one := throughput(1)
	r.set("kvnode.gate_scaling", throughput(2)/one)
	return failed
}
