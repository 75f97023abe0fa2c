package chaos

import (
	"fmt"

	"hrmsim/internal/kvnode"
	"hrmsim/internal/simmem"
)

// ErrScheduleExhausted is returned by an Injector whose deterministic
// fault schedule has no more distinct targets; the run stops injecting
// early rather than piling faults onto already-hit words.
var ErrScheduleExhausted = fmt.Errorf("chaos: injection schedule exhausted")

// LocalInjector corrupts an in-process kvnode's address space directly,
// taking the exclusion gate for each flip so injection lands between
// protocol commands, never mid-access.
//
// It places faults "hot": a deterministic round-robin over (hot key ×
// value word), where fault k hits word (k / len(keys)) of key
// keys[k % len(keys)], so no 8-byte ECC codeword is ever hit twice —
// single-bit protection is never accidentally escalated into an
// uncorrectable double-bit error by the schedule itself. Random placement
// is not an injector: the driver sends the node's own `inject soft`.
type LocalInjector struct {
	srv  *kvnode.Server
	keys []uint64
}

// NewLocalInjector builds a hot injector for a self-hosted node; mode must
// be "hot", and hotKeys defaults to the 8 most popular Zipf keys (0..7).
// The placement is a fixed round-robin, so seed is unused.
func NewLocalInjector(srv *kvnode.Server, mode string, hotKeys []uint64, seed int64) (*LocalInjector, error) {
	if mode != "hot" {
		return nil, fmt.Errorf("chaos: unknown local injection mode %q (hot; random placement is the node's inject command)", mode)
	}
	if len(hotKeys) == 0 {
		hotKeys = []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	}
	return &LocalInjector{srv: srv, keys: hotKeys}, nil
}

// Inject applies fault k (0-based) under the exclusion gate and returns
// the key whose value it hit.
func (li *LocalInjector) Inject(k int) (int64, error) {
	wordsPerValue := li.srv.App().ValueSize() / 8
	if wordsPerValue < 1 {
		wordsPerValue = 1
	}
	if k >= len(li.keys)*wordsPerValue {
		return -1, ErrScheduleExhausted
	}
	key := li.keys[k%len(li.keys)]
	word := k / len(li.keys)
	err := li.srv.Space().Exclusive(func() error {
		addr, err := li.srv.App().ValueAddr(key)
		if err != nil {
			return err
		}
		// First byte of the word, a mid-byte bit: one flipped data bit
		// per distinct codeword.
		return li.srv.Space().FlipBit(addr+simmem.Addr(word*8), 3)
	})
	return int64(key), err
}
