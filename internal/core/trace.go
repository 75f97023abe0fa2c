// Event-trace emission glue: observational adapters that turn simmem
// access/ECC hooks and trial milestones into evtrace events. Everything
// here is only constructed when CampaignConfig.Tracer is non-nil, so the
// zero-config path stays branch- and allocation-free on the access hot
// path.

package core

import (
	"time"

	"hrmsim/internal/evtrace"
	"hrmsim/internal/inject"
	"hrmsim/internal/simmem"
)

// traceAccessObserver emits one access_faulty event for every
// application load/store overlapping an injected byte. Unlike
// accessTracker (which stops at the first hit, because only the first
// consumption matters for classification), it reports every consumption,
// subject to the tracer's per-trial bulk cap.
type traceAccessObserver struct {
	tt      *evtrace.TrialTracer
	targets []simmem.Addr
}

var _ simmem.AccessObserver = (*traceAccessObserver)(nil)

// ObserveAccess implements simmem.AccessObserver.
func (o *traceAccessObserver) ObserveAccess(ev simmem.AccessEvent) {
	for _, a := range o.targets {
		if a >= ev.Addr && a < ev.Addr+simmem.Addr(ev.Len) {
			o.tt.Emit(evtrace.Event{
				Kind:       evtrace.KindAccessFaulty,
				VTNanos:    int64(ev.Time),
				Addr:       uint64(ev.Addr),
				Len:        ev.Len,
				Access:     ev.Kind.String(),
				Region:     ev.Region.Name(),
				RegionKind: ev.Region.Kind().String(),
			})
			return
		}
	}
}

// traceECCObserver forwards protection-code events: corrections,
// uncorrectable detections, and successful software responses.
type traceECCObserver struct {
	tt *evtrace.TrialTracer
}

var _ simmem.ECCObserver = (*traceECCObserver)(nil)

// ObserveECC implements simmem.ECCObserver.
func (o *traceECCObserver) ObserveECC(ev simmem.ECCEvent) {
	var kind evtrace.Kind
	detail := ""
	switch ev.Kind {
	case simmem.ECCCorrected:
		kind = evtrace.KindECCCorrected
	case simmem.ECCUncorrectable:
		kind = evtrace.KindECCUncorrectable
	case simmem.ECCRecovered:
		kind = evtrace.KindSWResponse
		detail = "MC handler recovered the word"
	default:
		return
	}
	o.tt.Emit(evtrace.Event{
		Kind:       kind,
		VTNanos:    int64(ev.Time),
		Addr:       uint64(ev.Addr),
		Region:     ev.Region.Name(),
		RegionKind: ev.Region.Kind().String(),
		Detail:     detail,
	})
}

// traceInjection emits one inject event per corrupted byte and registers
// the trace observers on the trial's address space.
func traceInjection(tt *evtrace.TrialTracer, as *simmem.AddressSpace, inj inject.Injection, addrs []simmem.Addr) {
	if tt == nil {
		return
	}
	now := int64(as.Clock().Now())
	for _, tgt := range inj.Targets {
		tt.Emit(evtrace.Event{
			Kind:       evtrace.KindInject,
			VTNanos:    now,
			Addr:       uint64(tgt.Addr),
			Bits:       tgt.Bits,
			Error:      inj.Spec.String(),
			Region:     inj.Region.Name(),
			RegionKind: inj.Region.Kind().String(),
		})
	}
	as.AddAccessObserver(&traceAccessObserver{tt: tt, targets: addrs})
	as.AddECCObserver(&traceECCObserver{tt: tt})
}

// traceTrialStart emits the opening event (the only events carrying host
// wall-clock readings are trial_start and trial_end, in the segregated
// wall_unix_ns field). vt is the post-build clock reading the session
// captured before warmup — what a freshly built instance would show.
func traceTrialStart(tt *evtrace.TrialTracer, vt time.Duration) {
	if tt == nil {
		return
	}
	tt.Emit(evtrace.Event{
		Kind:          evtrace.KindTrialStart,
		VTNanos:       int64(vt),
		WallUnixNanos: time.Now().UnixNano(),
	})
}

// traceRestore emits the snapshot-restore event that opens a trial: the
// virtual clock has been rolled back to
// the post-warmup capture. The rollback size is excluded on purpose —
// it depends on worker scheduling, and the trace stream must stay
// identical across parallelism levels (the dirty-page histogram metric
// carries sizes).
func traceRestore(tt *evtrace.TrialTracer, as *simmem.AddressSpace) {
	if tt == nil {
		return
	}
	tt.Emit(evtrace.Event{
		Kind:    evtrace.KindRestore,
		VTNanos: int64(as.Clock().Now()),
	})
}

// traceAbort records the abort of a trial whose own tracer handle is
// unusable — the watchdog abandoned the trial goroutine (deadline), or
// the trial never got far enough to open one (exhausted retries). It
// delivers a minimal single-event trial so the stream still accounts
// for the index; if the abandoned goroutine later finishes its own
// handle, the tracer drops that late duplicate.
func traceAbort(tracer *evtrace.Tracer, trial int, reason, detail string) {
	if tracer == nil {
		return
	}
	tt := tracer.Trial(trial)
	tt.Emit(evtrace.Event{
		Kind:   evtrace.KindAbort,
		Reason: reason,
		Detail: detail,
	})
	tt.Finish()
}

// traceTrialEnd emits the outcome classification and the closing event.
func traceTrialEnd(tt *evtrace.TrialTracer, tr TrialResult) {
	if tt == nil {
		return
	}
	tt.Emit(evtrace.Event{
		Kind:       evtrace.KindOutcome,
		VTNanos:    int64(tr.EndedAt),
		Outcome:    tr.Outcome.String(),
		Region:     tr.Region,
		RegionKind: tr.Kind.String(),
		Detail:     tr.CrashReason,
	})
	tt.Emit(evtrace.Event{
		Kind:          evtrace.KindTrialEnd,
		VTNanos:       int64(tr.EndedAt),
		Dropped:       tt.DroppedCount(),
		WallUnixNanos: time.Now().UnixNano(),
	})
	tt.Finish()
}
