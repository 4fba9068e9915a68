package ssd

import (
	"reflect"
	"strings"
	"testing"

	"readretry/internal/nand"
	"readretry/internal/vth"
)

func TestParseDevice(t *testing.T) {
	for in, want := range map[string]Device{
		"tlc":    DeviceTLC,
		"TLC":    DeviceTLC,
		" qlc16": DeviceQLC16,
		"QLC16":  DeviceQLC16,
	} {
		got, err := ParseDevice(in)
		if err != nil || got != want {
			t.Errorf("ParseDevice(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "mlc8", "qlc"} {
		if _, err := ParseDevice(in); err == nil {
			t.Errorf("ParseDevice(%q) should fail", in)
		}
	}
	if n := len(Devices()); n != 2 {
		t.Errorf("Devices() lists %d presets, want 2", n)
	}
}

func TestDeviceTLCApplyIsIdentity(t *testing.T) {
	cfg := ExperimentConfig()
	if got := DeviceTLC.Apply(cfg); !reflect.DeepEqual(got, cfg) {
		t.Error("DeviceTLC.Apply must leave the config unchanged")
	}
	// The unset sentinel behaves like TLC.
	if got := Device("").Apply(cfg); !reflect.DeepEqual(got, cfg) {
		t.Error("unset Device.Apply must leave the config unchanged")
	}
}

func TestDeviceQLC16Apply(t *testing.T) {
	cfg := DeviceQLC16.Apply(ExperimentConfig())
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Geometry.CellKind() != nand.QLC {
		t.Errorf("CellKind = %v, want QLC", cfg.Geometry.CellKind())
	}
	if !reflect.DeepEqual(cfg.VthParams, vth.QLC16Params()) {
		t.Error("VthParams should be the QLC16 calibration")
	}
	// Scale fields are preserved so presets compose with ExperimentConfig.
	base := ExperimentConfig()
	if cfg.Geometry.BlocksPerPlane != base.Geometry.BlocksPerPlane ||
		cfg.Channels != base.Channels || cfg.Timing != base.Timing {
		t.Error("device preset must not change device scale or timing")
	}
}

func TestQLCDeviceRunsEndToEnd(t *testing.T) {
	cfg := DeviceQLC16.Apply(tinyConfig())
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	st := runWorkload(t, cfg, "YCSB-C", 600, 300)
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d of %d on QLC device", st.Completed, st.Submitted)
	}
	if st.AR2Fallbacks > 0 {
		t.Errorf("%d ladder-exhausted reads on aged QLC device", st.AR2Fallbacks)
	}
	// The steeper QLC drift must retry harder than the TLC device at the
	// same worst-grid condition (and beyond TLC's 40-entry ladder for the
	// deepest reads, exercising the extended table).
	tlcCfg := tinyConfig()
	tlcCfg.PEC, tlcCfg.RetentionMonths = 2000, 12
	tlcSt := runWorkload(t, tlcCfg, "YCSB-C", 600, 300)
	if st.MeanRetrySteps() <= tlcSt.MeanRetrySteps() {
		t.Errorf("QLC mean N_RR %.1f should exceed TLC's %.1f",
			st.MeanRetrySteps(), tlcSt.MeanRetrySteps())
	}
}

func TestQLCFreshDeviceReadsClean(t *testing.T) {
	cfg := DeviceQLC16.Apply(tinyConfig())
	cfg.PEC, cfg.RetentionMonths = 0, 0
	st := runWorkload(t, cfg, "YCSB-C", 600, 2000)
	if st.MeanRetrySteps() != 0 {
		t.Errorf("fresh QLC mean N_RR = %.2f, want 0", st.MeanRetrySteps())
	}
	if st.AR2Fallbacks > 0 {
		t.Errorf("%d ladder-exhausted reads on fresh QLC device", st.AR2Fallbacks)
	}
}

// TestValidateRejectsCellKindMismatch: a geometry of one cell kind over an
// error model calibrated for another is refused by Validate, naming both,
// so a sweep refuses it before its first cell.
func TestValidateRejectsCellKindMismatch(t *testing.T) {
	cfg := ExperimentConfig()
	cfg.Geometry.CellBits = 4
	err := cfg.Validate()
	if err == nil {
		t.Fatal("a QLC geometry over TLC VthParams passed Validate")
	}
	for _, kind := range []string{"QLC", "TLC"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("Validate error %q does not name %s", err, kind)
		}
	}
}
