package hrmsim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"hrmsim/internal/core"
	"hrmsim/internal/faults"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
)

// Explain's refusals.
var (
	// ErrTrialNotJournaled: the journal holds no record of the trial.
	ErrTrialNotJournaled = errors.New("hrmsim: the journal holds no record of the trial")
	// ErrTrialAborted: the journal records the trial as aborted, so it
	// has no outcome to explain.
	ErrTrialAborted = errors.New("hrmsim: the journal records the trial as aborted")
	// ErrExplainMismatch: the re-run's result differs from the journaled
	// record, so the explanation would be of a different trial.
	ErrExplainMismatch = errors.New("hrmsim: the re-run differs from the journaled record")
)

// Explain re-runs one journaled trial and writes its causal chain to w:
// injection, first consumption of the injected byte, ECC verdict, software
// response or crash, outcome — or, for a trial the campaign decided from
// its fault-free window, the rule and the window's record of the granule.
// The chain is printed only once the re-run equals the journaled record
// bit for bit (see OBSERVABILITY.md, "Explaining a trial").
func Explain(w io.Writer, journalPath string, trial int) error {
	meta, ex, err := explainTrial(journalPath, trial)
	if err != nil {
		return err
	}
	printExplanation(w, meta, ex)
	return nil
}

// explainTrial rebuilds the campaign a journal's header names, re-runs
// trial i through the campaign's own fault-free pass and trial loop, and
// checks the re-run against the journaled record.
func explainTrial(journalPath string, i int) (core.JournalMeta, *core.Explanation, error) {
	f, err := os.Open(journalPath)
	if err != nil {
		return core.JournalMeta{}, nil, fmt.Errorf("hrmsim: %w", err)
	}
	meta, recs, err := core.ReadJournal(f)
	f.Close()
	if err != nil {
		return meta, nil, fmt.Errorf("hrmsim: reading journal %s: %w", journalPath, err)
	}
	cfg := CharacterizeConfig{
		App: App(meta.App), Error: ErrorType(meta.Error), Region: Region(meta.Region),
		Trials: meta.Trials, Seed: meta.Seed, Size: WorkloadSize(meta.Size),
		TargetCI: meta.TargetCI, MinTrials: meta.MinTrials,
		ShardIndex: meta.ShardIndex, ShardCount: meta.ShardCount,
	}
	if err := cfg.resolve(); err != nil {
		return meta, nil, err
	}
	ccfg, rebuilt, err := cfg.campaign()
	if err != nil {
		return meta, nil, err
	}
	if err := meta.Matches(rebuilt); err != nil {
		return meta, nil, fmt.Errorf("hrmsim: journal %s names a campaign this build cannot rebuild: %w", journalPath, err)
	}
	want, ok := recs[i]
	switch {
	case !ok:
		return meta, nil, fmt.Errorf("%w: trial %d, journal %s", ErrTrialNotJournaled, i, journalPath)
	case want.Disposition != core.DispositionCompleted:
		return meta, nil, fmt.Errorf("%w: trial %d (%s: %s)", ErrTrialAborted, i, want.AbortReason, want.AbortDetail)
	}
	ex, err := core.ExplainTrial(ccfg, i)
	if err != nil {
		return meta, nil, err
	}
	if !reflect.DeepEqual(ex.Result, want) {
		return meta, nil, fmt.Errorf("%w: trial %d\nre-run:    %+v\njournaled: %+v", ErrExplainMismatch, i, ex.Result, want)
	}
	return meta, ex, nil
}

// touchNames label monitor.Touch values.
var touchNames = [...]string{monitor.TouchNever: "never", monitor.TouchOverwrite: "overwritten whole", monitor.TouchSensed: "sensed"}

// printExplanation renders one checked explanation. Times are virtual,
// relative to the injection.
func printExplanation(w io.Writer, meta core.JournalMeta, ex *core.Explanation) {
	tr := ex.Result
	region := meta.Region
	if region == "" {
		region = "all regions"
	}
	fmt.Fprintf(w, "trial %d of %d: %s, %s, %s, seed %d\n", tr.Index, meta.Trials, meta.App, meta.Error, region, meta.Seed)
	since := func(at time.Duration) string { return "+" + (at - tr.InjectedAt).String() }
	if ex.Decided {
		g := ex.Granule
		fmt.Fprintf(w, "  inject    %#x in %s: decided from the fault-free window, nothing injected\n", ex.Addr, g.Region)
		rule := "never referenced by the window, so the error stays latent"
		if g.First == monitor.TouchOverwrite {
			rule = "first overwritten whole by the window, so the soft flip is overwritten before any read"
		}
		fmt.Fprintf(w, "  rule      %s\n", rule)
		fmt.Fprintf(w, "  granule   region %s (%s), first touch %s, safe %v, unsafe %v\n",
			g.Region, g.Kind, touchNames[g.First], g.Safe, g.Unsafe)
	} else {
		inj := ex.Injection
		verb := "flipped"
		if inj.Spec.Class == faults.Hard {
			verb = "stuck"
		}
		for _, t := range inj.Targets {
			fmt.Fprintf(w, "  inject    %#x in %s, bits %v %s, at t=%v\n", t.Addr, inj.Region.Name(), t.Bits, verb, tr.InjectedAt)
		}
		if len(ex.Consumptions) == 0 {
			fmt.Fprintln(w, "  consume   never: no access reached the injected byte")
		} else {
			c := ex.Consumptions[0]
			fmt.Fprintf(w, "  consume   first a %s of %d bytes at %#x, %s; %d accesses to the injected byte in all\n",
				c.Kind, c.Len, c.Addr, since(c.Time), len(ex.Consumptions))
		}
		fmt.Fprintf(w, "  ecc       %s\n", eccVerdict(inj.Region, ex.ECC, since))
		fmt.Fprintf(w, "  response  %s\n", response(tr, ex.ECC, since))
	}
	fmt.Fprintf(w, "  outcome   %s after %d requests, ended %s; equals the journaled record\n",
		tr.Outcome, tr.Requests, since(tr.EndedAt))
}

// eccVerdict describes what the injected region's code made of the error.
func eccVerdict(r *simmem.Region, evs []simmem.ECCEvent, since func(time.Duration) string) string {
	if r.Codec() == nil {
		return fmt.Sprintf("none: region %s is unprotected", r.Name())
	}
	var corrected, uncorrectable int
	first := ""
	for _, ev := range evs {
		switch ev.Kind {
		case simmem.ECCCorrected:
			corrected++
		case simmem.ECCUncorrectable:
			uncorrectable++
		default:
			continue
		}
		if first == "" {
			first = fmt.Sprintf(", first at %#x %s", ev.Addr, since(ev.Time))
		}
	}
	return fmt.Sprintf("%s: %d corrected, %d detected uncorrectable%s", r.Codec().Name(), corrected, uncorrectable, first)
}

// response describes how software answered the error: a recovery
// handler, a crash, wrong answers, or nothing.
func response(tr core.TrialResult, evs []simmem.ECCEvent, since func(time.Duration) string) string {
	recovered := 0
	for _, ev := range evs {
		if ev.Kind == simmem.ECCRecovered {
			recovered++
		}
	}
	switch {
	case tr.Outcome == core.OutcomeCrash:
		return fmt.Sprintf("crash %s: %s", since(tr.EffectAt), tr.CrashReason)
	case recovered > 0:
		return fmt.Sprintf("%d words repaired by the machine-check handler", recovered)
	case tr.Incorrect > 0:
		return fmt.Sprintf("%d incorrect responses, the first %s", tr.Incorrect, since(tr.EffectAt))
	}
	return "none"
}
