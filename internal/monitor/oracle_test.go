package monitor

import (
	"math/rand"
	"testing"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/graphmine"
	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/simmem"
)

// watchMonitor is the reference side of TestProfileMatchesWatchpoints: the
// paper's watchpoint framework written out directly — a watchpoint per
// sampled byte found through page buckets, and per-page write counters for
// the pages of every region. Like the build-per-trial and replay-all
// references of the campaign engine it exists on the test side only.
type watchMonitor struct {
	pageSize int
	clock    *simmem.Clock
	start    time.Duration
	buckets  map[uint64][]*watchpoint
	watched  map[simmem.Addr]*watchpoint
	pages    map[*simmem.Region][]uint64
}

type watchpoint struct {
	addr         simmem.Addr
	last         time.Duration
	seen         bool
	safe, unsafe time.Duration
}

func newWatchMonitor(as *simmem.AddressSpace) *watchMonitor {
	m := &watchMonitor{
		pageSize: as.PageSize(),
		clock:    as.Clock(),
		start:    as.Clock().Now(),
		buckets:  make(map[uint64][]*watchpoint),
		watched:  make(map[simmem.Addr]*watchpoint),
		pages:    make(map[*simmem.Region][]uint64),
	}
	for _, r := range as.Regions() {
		m.pages[r] = make([]uint64, r.PageCount())
	}
	return m
}

func (m *watchMonitor) watch(addr simmem.Addr) {
	w := &watchpoint{addr: addr}
	m.watched[addr] = w
	b := uint64(addr) / uint64(m.pageSize)
	m.buckets[b] = append(m.buckets[b], w)
}

func (m *watchMonitor) ObserveAccess(ev simmem.AccessEvent) {
	lo := uint64(ev.Addr) / uint64(m.pageSize)
	hi := (uint64(ev.Addr) + uint64(ev.Len) - 1) / uint64(m.pageSize)
	for b := lo; b <= hi; b++ {
		for _, w := range m.buckets[b] {
			if w.addr < ev.Addr || w.addr >= ev.Addr+simmem.Addr(ev.Len) {
				continue
			}
			if w.seen {
				if dt := ev.Time - w.last; dt > 0 {
					if ev.Kind == simmem.Store {
						w.safe += dt
					} else {
						w.unsafe += dt
					}
				}
			}
			w.seen = true
			w.last = ev.Time
		}
	}
	if ev.Kind == simmem.Store {
		writes := m.pages[ev.Region]
		first := ev.Region.PageIndex(ev.Addr)
		last := ev.Region.PageIndex(ev.Addr + simmem.Addr(ev.Len-1))
		for p := first; p <= last; p++ {
			writes[p]++
		}
	}
}

func (m *watchMonitor) window() time.Duration { return m.clock.Now() - m.start }

func (m *watchMonitor) recoverabilityOf(r *simmem.Region) Recoverability {
	span := m.window()
	usedPages := (r.Used() + m.pageSize - 1) / m.pageSize
	if usedPages == 0 {
		return Recoverability{}
	}
	var implicit, explicit int
	for p := 0; p < usedPages; p++ {
		w := m.pages[r][p]
		isImplicit := r.Backed() && (r.ReadOnly() || w == 0)
		isExplicit := w == 0 || time.Duration(float64(span)/float64(w)) >= ExplicitThreshold
		if isImplicit {
			implicit++
		}
		if isExplicit {
			explicit++
		}
	}
	n := float64(usedPages)
	return Recoverability{
		Implicit: float64(implicit) / n,
		Explicit: float64(explicit) / n,
		Pages:    usedPages,
	}
}

// referenceApps builds a fresh instance of each application at
// apps.SizeSmall, and of growingApp.
var referenceApps = map[string]func() (apps.App, error){
	"websearch": func() (apps.App, error) {
		cfg, err := websearch.SizedConfig(apps.SizeSmall, 1)
		if err != nil {
			return nil, err
		}
		b, err := websearch.NewBuilder(cfg)
		if err != nil {
			return nil, err
		}
		return b.Build()
	},
	"kvstore": func() (apps.App, error) {
		cfg, err := kvstore.SizedConfig(apps.SizeSmall, 1)
		if err != nil {
			return nil, err
		}
		b, err := kvstore.NewBuilder(cfg)
		if err != nil {
			return nil, err
		}
		return b.Build()
	},
	"graphmine": func() (apps.App, error) {
		cfg, err := graphmine.SizedConfig(apps.SizeSmall, 1)
		if err != nil {
			return nil, err
		}
		b, err := graphmine.NewBuilder(cfg)
		if err != nil {
			return nil, err
		}
		return b.Build()
	},
	"growing": newGrowingApp,
}

// growingApp is a workload whose heap comes into use during the window,
// one page every four requests, each new page written hot. No case-study
// application grows a region after build, but Table 5 classifies the
// pages in use after the window, so the record counts writes to all.
type growingApp struct {
	as   *simmem.AddressSpace
	heap *simmem.Region
}

func newGrowingApp() (apps.App, error) {
	as, err := simmem.New(simmem.Config{PageSize: 256})
	if err != nil {
		return nil, err
	}
	heap, err := as.AddRegion(simmem.RegionSpec{Name: "heap", Kind: simmem.RegionHeap, Size: 2048})
	if err != nil {
		return nil, err
	}
	heap.SetUsed(256)
	return &growingApp{as: as, heap: heap}, nil
}

func (a *growingApp) Name() string                { return "growing" }
func (a *growingApp) Space() *simmem.AddressSpace { return a.as }
func (a *growingApp) NumRequests() int            { return 16 }

func (a *growingApp) Serve(i int) (apps.Response, error) {
	a.as.Clock().Advance(time.Minute)
	a.heap.SetUsed(256 * (1 + (i+1)/4))
	top := a.heap.Base() + simmem.Addr(a.heap.Used()-8)
	if err := a.as.StoreU64(top, uint64(i)); err != nil {
		return apps.Response{}, err
	}
	if err := a.as.StoreU8(a.heap.Base()+simmem.Addr(i%4*8), byte(i)); err != nil {
		return apps.Response{}, err
	}
	v, err := a.as.LoadU64(a.heap.Base() + simmem.Addr(i%3*8))
	return apps.Response{Digest: v}, err
}

// observeWindow makes a record of inst's whole workload the way
// core.Prepare does at warm-up 0 (New, every request served, Finish),
// after drawing the Fig. 5b sample from a generator seeded with seed.
func observeWindow(t *testing.T, inst apps.App, seed int64, watchpoints int) (*Profile, []simmem.Addr) {
	t.Helper()
	as := inst.Space()
	p := New(as)
	as.AddAccessObserver(p)
	sampled := Sample(as, rand.New(rand.NewSource(seed)), watchpoints)
	for i := 0; i < inst.NumRequests(); i++ {
		if _, err := inst.Serve(i); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	p.Finish(as)
	return p, sampled
}

// TestProfileMatchesWatchpoints: on every application, the record of its
// window agrees with the watchpoint reference, run on a second instance
// of the same build watching the same sample, on each sampled byte's
// durations and safe ratio, each region's recoverability, and the window.
func TestProfileMatchesWatchpoints(t *testing.T) {
	for name, build := range referenceApps {
		t.Run(name, func(t *testing.T) {
			inst, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rec, sampled := observeWindow(t, inst, 1, 300)
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			as := ref.Space()
			mon := newWatchMonitor(as)
			for _, a := range sampled {
				mon.watch(a)
			}
			as.AddAccessObserver(mon)
			for i := 0; i < ref.NumRequests(); i++ {
				if _, err := ref.Serve(i); err != nil {
					t.Fatal(err)
				}
			}

			var ratios int
			for _, a := range sampled {
				g, ok := rec.At(a)
				w := mon.watched[a]
				if !ok || g.Safe != w.safe || g.Unsafe != w.unsafe {
					t.Fatalf("%#x: record %+v (%v), watchpoint safe %v unsafe %v", uint64(a), g, ok, w.safe, w.unsafe)
				}
				got, gotOK := g.SafeRatio()
				want, wantOK := 0.0, w.safe+w.unsafe > 0
				if wantOK {
					want = float64(w.safe) / float64(w.safe+w.unsafe)
					ratios++
				}
				if got != want || gotOK != wantOK {
					t.Fatalf("%#x: safe ratio %g (%v), watchpoint %g (%v)", uint64(a), got, gotOK, want, wantOK)
				}
			}
			if ratios == 0 {
				t.Fatal("no sampled byte has a safe ratio: the durations compared are all zero")
			}
			if rec.Window() != mon.window() || rec.Window() <= 0 {
				t.Errorf("window %v, watchpoints saw %v", rec.Window(), mon.window())
			}
			for i, r := range rec.Regions() {
				got, err := rec.RecoverabilityOf(r.Base)
				if err != nil {
					t.Fatal(err)
				}
				if want := mon.recoverabilityOf(as.Regions()[i]); got != want {
					t.Errorf("%s: recoverability %+v, watchpoints %+v", r.Name, got, want)
				}
			}
		})
	}
}
