package faults

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// GenConfig parameterizes random schedule synthesis: how many windows of
// each kind to scatter over the period, how wide and how severe they are on
// average, and the background transient error rate. Zero-valued duration
// and shape fields fall back to the production defaults below.
type GenConfig struct {
	// Seed drives both window placement and per-server membership.
	Seed uint64
	// PeriodSeconds is the campaign span windows are scattered over.
	PeriodSeconds float64
	// Slowdowns, Outages, and Storms count the windows of each kind.
	Slowdowns, Outages, Storms int
	// ServerFrac is the mean fraction of servers a window touches.
	ServerFrac float64
	// Severity is the mean bandwidth fraction a slowdown removes.
	Severity float64
	// LatencyFactor is the mean metadata-storm latency multiplier.
	LatencyFactor float64
	// MeanDurationSeconds is the mean window length.
	MeanDurationSeconds float64
	// TransientErrorRate is the background per-op error probability.
	TransientErrorRate float64
	// OutageErrorRate is the extra per-op error probability inside outage
	// windows (span-fraction scaled).
	OutageErrorRate float64
}

// Production returns the default production-load fault mix for a campaign
// of the given period: roughly two slowdowns, one storm, and half an outage
// per month of simulated time, in the spirit of the degraded intervals the
// IO500 submission study observes on long-lived deployments.
func Production(seed uint64, periodSeconds float64) GenConfig {
	months := periodSeconds / (30.4 * 86400)
	if months < 1 {
		months = 1
	}
	return GenConfig{
		Seed:                seed,
		PeriodSeconds:       periodSeconds,
		Slowdowns:           int(math.Round(2 * months)),
		Outages:             int(math.Round(0.5 * months)),
		Storms:              int(math.Round(1 * months)),
		ServerFrac:          0.08,
		Severity:            0.6,
		LatencyFactor:       8,
		MeanDurationSeconds: 6 * 3600,
		TransientErrorRate:  2e-5,
		OutageErrorRate:     0.3,
	}
}

// Generate synthesizes a schedule from the config, deterministically from
// its seed: the same config always yields the same windows.
func Generate(cfg GenConfig) *Schedule {
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = 365 * 86400
	}
	if cfg.ServerFrac <= 0 || cfg.ServerFrac > 1 {
		cfg.ServerFrac = 0.08
	}
	if cfg.Severity <= 0 || cfg.Severity >= 1 {
		cfg.Severity = 0.6
	}
	if cfg.LatencyFactor < 1 {
		cfg.LatencyFactor = 8
	}
	if cfg.MeanDurationSeconds <= 0 {
		cfg.MeanDurationSeconds = 6 * 3600
	}
	r := rand.New(rand.NewPCG(cfg.Seed, 0xFA01755EED))
	s := &Schedule{Seed: cfg.Seed, TransientErrorRate: cfg.TransientErrorRate}
	emit := func(n int, kind Kind, build func(w *Window, r *rand.Rand)) {
		for i := 0; i < n; i++ {
			dur := cfg.MeanDurationSeconds * math.Exp(0.6*r.NormFloat64())
			if dur < 60 {
				dur = 60
			}
			start := r.Float64() * cfg.PeriodSeconds
			frac := clamp(cfg.ServerFrac*math.Exp(0.5*r.NormFloat64()), 0.005, 1)
			w := Window{Kind: kind, Start: start, End: start + dur, ServerFrac: frac}
			build(&w, r)
			s.Windows = append(s.Windows, w)
		}
	}
	emit(cfg.Slowdowns, Slowdown, func(w *Window, r *rand.Rand) {
		w.Severity = clamp(cfg.Severity*(0.6+0.8*r.Float64()), 0.05, 0.95)
	})
	emit(cfg.Outages, Outage, func(w *Window, r *rand.Rand) {
		// Outages are shorter and narrower than slowdowns: whole-pool
		// blackouts are rare; a few dark servers for an hour or two is not.
		w.End = w.Start + (w.End-w.Start)*0.3
		w.ServerFrac = clamp(w.ServerFrac*0.5, 0.002, 1)
		w.ErrorRate = cfg.OutageErrorRate
	})
	emit(cfg.Storms, MetaStorm, func(w *Window, r *rand.Rand) {
		w.LatencyFactor = 1 + (cfg.LatencyFactor-1)*(0.5+r.Float64())
	})
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ParseSpec parses a fault-schedule specification string into a GenConfig.
// The spec is either the word "production" (the default mix) or a
// comma-separated key=value list overriding it:
//
//	slowdowns=N   outages=N   storms=N      window counts
//	frac=F        mean affected-server fraction (0,1]
//	severity=F    mean slowdown bandwidth loss (0,1)
//	latfactor=F   mean meta-storm latency multiplier (≥1)
//	duration=F    mean window length in hours (>0)
//	errrate=F     background transient-error probability per op [0,1]
//
// e.g. "slowdowns=12,outages=3,errrate=1e-4". Unlisted keys keep their
// production defaults. Seed and period are supplied by the caller.
func ParseSpec(spec string, seed uint64, periodSeconds float64) (GenConfig, error) {
	cfg := Production(seed, periodSeconds)
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "production") {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("faults: bad spec term %q (want key=value)", kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		switch k {
		case "slowdowns", "outages", "storms":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return cfg, fmt.Errorf("faults: %s=%q is not a non-negative integer", k, v)
			}
			switch k {
			case "slowdowns":
				cfg.Slowdowns = n
			case "outages":
				cfg.Outages = n
			case "storms":
				cfg.Storms = n
			}
		case "frac", "severity", "latfactor", "duration", "errrate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return cfg, fmt.Errorf("faults: %s=%q is not a finite number", k, v)
			}
			switch {
			case k == "frac" && (f <= 0 || f > 1):
				return cfg, fmt.Errorf("faults: frac=%v outside (0,1]", f)
			case k == "severity" && (f <= 0 || f >= 1):
				return cfg, fmt.Errorf("faults: severity=%v outside (0,1)", f)
			case k == "latfactor" && f < 1:
				return cfg, fmt.Errorf("faults: latfactor=%v below 1", f)
			case k == "duration" && (f <= 0 || math.IsInf(f*3600, 0)):
				return cfg, fmt.Errorf("faults: duration=%v must be positive hours that fit in float64 seconds", f)
			case k == "errrate" && (f < 0 || f > 1):
				return cfg, fmt.Errorf("faults: errrate=%v outside [0,1]", f)
			}
			switch k {
			case "frac":
				cfg.ServerFrac = f
			case "severity":
				cfg.Severity = f
			case "latfactor":
				cfg.LatencyFactor = f
			case "duration":
				cfg.MeanDurationSeconds = f * 3600
			case "errrate":
				cfg.TransientErrorRate = f
			}
		default:
			return cfg, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	return cfg, nil
}
