package cli

import (
	"context"
	"flag"
	"strings"
	"testing"
)

// allGroups is every flag family; no binary registers all of them.
const allGroups = FlagDebug | FlagWorkers | FlagFaults | FlagCheckpoint | FlagQuarantine

func parse(t *testing.T, groups FlagGroup, args ...string) *CommonFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c CommonFlags
	c.Register(fs, groups)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

func TestRegisterGroupsAreSelective(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c CommonFlags
	c.Register(fs, FlagDebug|FlagWorkers)
	for _, want := range []string{"debug-addr", "metrics", "workers"} {
		if fs.Lookup(want) == nil {
			t.Errorf("flag -%s not registered", want)
		}
	}
	for _, absent := range []string{"faults", "faultseed", "checkpoint", "resume", "quarantine"} {
		if fs.Lookup(absent) != nil {
			t.Errorf("flag -%s registered but its group was not requested", absent)
		}
	}
}

func TestRegisterAllParsesTheStandardSurface(t *testing.T) {
	c := parse(t, allGroups,
		"-debug-addr", "127.0.0.1:0", "-metrics", "m.json", "-workers", "3",
		"-faults", "production", "-faultseed", "7",
		"-checkpoint", "c.ckpt", "-checkpoint-every", "64", "-resume", "r.ckpt",
		"-quarantine", "qdir")
	if c.DebugAddr != "127.0.0.1:0" || c.MetricsOut != "m.json" || c.Workers != 3 ||
		c.FaultSpec != "production" || c.FaultSeed != 7 ||
		c.CheckpointPath != "c.ckpt" || c.CheckpointEvery != 64 || c.ResumePath != "r.ckpt" ||
		c.QuarantineDir != "qdir" {
		t.Errorf("parsed values wrong: %+v", c)
	}
}

func TestActivateWithoutObservabilityFlagsIsOff(t *testing.T) {
	c := parse(t, allGroups)
	a := c.Activate(context.Background(), "test")
	defer a.Close()
	if a.Metrics != nil {
		t.Errorf("Metrics registry created with neither -debug-addr nor -metrics")
	}
}

func TestActivateMetricsOnlyBuildsRegistryWithoutListener(t *testing.T) {
	c := parse(t, FlagDebug, "-metrics", t.TempDir()+"/out.json")
	a := c.Activate(context.Background(), "test")
	defer a.Close()
	if a.Metrics == nil {
		t.Fatalf("no registry despite -metrics")
	}
	a.Metrics.Counter("x").Add(2)
	a.WriteMetricsOut()
}

func TestActivateServesDebugEndpointAndClosesOnCtx(t *testing.T) {
	c := parse(t, FlagDebug, "-debug-addr", "127.0.0.1:0")
	ctx, cancel := context.WithCancel(context.Background())
	a := c.Activate(ctx, "test-flags")
	defer a.Close()
	if a.Metrics == nil {
		t.Fatalf("no registry despite -debug-addr")
	}
	cancel()
	// Close is idempotent and concurrent-safe with the ctx teardown.
	a.Close()
	a.Close()
}

func TestFaultSchedule(t *testing.T) {
	c := parse(t, FlagFaults)
	if s, err := c.FaultSchedule(1, 86400); err != nil || s != nil {
		t.Errorf("empty spec: got (%v, %v), want (nil, nil)", s, err)
	}
	c = parse(t, FlagFaults, "-faults", "production")
	s, err := c.FaultSchedule(13, 86400)
	if err != nil || s == nil {
		t.Fatalf("production spec: got (%v, %v)", s, err)
	}
	c = parse(t, FlagFaults, "-faults", "no-such-knob=1")
	if _, err := c.FaultSchedule(1, 86400); err == nil {
		t.Errorf("bad spec accepted")
	}
	if !strings.Contains(c.FaultSpec, "no-such-knob") {
		t.Errorf("spec not retained: %q", c.FaultSpec)
	}
}
