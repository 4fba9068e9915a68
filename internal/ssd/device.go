package ssd

import (
	"fmt"
	"strings"

	"readretry/internal/vth"
)

// Device names a preset cell-level configuration: the cell geometry
// (nand.CellKind via Geometry.CellBits), the matching error-model
// calibration, and the ECC strength the device class ships with. A preset
// changes only those cell-level fields — parallelism, block counts, timing,
// scheme, and operating condition are whatever the surrounding Config says —
// so the same scaled-down experiment device can be swept per cell kind.
//
// The empty string is the "unset" sentinel the sweep layer uses for
// single-device (default TLC) grids, mirroring Condition.TempC's zero
// sentinel from the temperature axis.
type Device string

// Supported device presets.
const (
	// DeviceTLC is the paper's 3D TLC device — the default; applying it
	// leaves a config unchanged.
	DeviceTLC Device = "tlc"
	// DeviceQLC16 is a 16-level QLC device: 4 bits per cell, the
	// vth.QLC16Params calibration (steeper drift, thinner margins, longer
	// ladder), and LDPC-class ECC.
	DeviceQLC16 Device = "qlc16"
)

// Devices lists the supported presets in display order.
func Devices() []Device { return []Device{DeviceTLC, DeviceQLC16} }

// Valid reports whether the device names a supported preset.
func (d Device) Valid() bool { return d == DeviceTLC || d == DeviceQLC16 }

// String returns the preset name.
func (d Device) String() string { return string(d) }

// ParseDevice resolves a user-supplied device name (case-insensitive).
func ParseDevice(s string) (Device, error) {
	d := Device(strings.ToLower(strings.TrimSpace(s)))
	if !d.Valid() {
		return "", fmt.Errorf("ssd: unknown device %q (supported: %v)", s, Devices())
	}
	return d, nil
}

// Apply returns the config with the preset's cell-level fields installed:
// Geometry.CellBits and VthParams, whose CapabilityPerKiB is the ECC
// capability the retry loop tests against.
// Everything else — parallelism, block counts, timing, scheme, condition —
// is preserved, so presets compose with ExperimentConfig and sweep variants.
func (d Device) Apply(cfg Config) Config {
	switch d {
	case DeviceQLC16:
		cfg.Geometry.CellBits = 4
		cfg.VthParams = vth.QLC16Params()
	default:
		// DeviceTLC (and the unset sentinel) is the baseline the rest of
		// the config already describes.
	}
	return cfg
}
