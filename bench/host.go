package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the tick rate of /proc/stat's counters (USER_HZ), 100 on every
// Linux architecture the simulator is run on.
const userHZ = 100

// nproc is the CPU count the benchmark sizes its load to and divides
// system-wide steal by: the CPUs this process may run on.
func nproc() int { return runtime.NumCPU() }

// stealTicks reads the system-wide steal counter from /proc/stat: the time
// the hypervisor ran something else while this VM's CPUs wanted to run. It
// returns 0 where the file is missing, so steal adjustment degrades to raw
// wall time.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	// "cpu user nice system idle iowait irq softirq steal ..."
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// adjustWall removes the hypervisor's share from a wall-clock interval:
// system-wide steal seconds are spread over every CPU, so one CPU lost
// steal/nproc seconds of the interval. The result never drops below 1% of
// the raw wall time, which tick granularity could otherwise produce on a
// very short interval.
func adjustWall(wallS, stealS float64, cpus int) float64 {
	adj := wallS - stealS/float64(cpus)
	if adj < wallS/100 {
		adj = wallS / 100
	}
	return adj
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MB, or 0
// where /proc/self/status is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// mark is a point-in-time reading of every resource a measured interval is
// charged for.
type mark struct {
	at    time.Time
	steal int64
	cpu   time.Duration
	alloc uint64
}

func takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Now(), steal: stealTicks(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// usage is what one measured interval cost. WallS and StealS are kept raw
// for the env record; AdjWallS is the steal-adjusted time every timing
// metric is derived from.
type usage struct {
	WallS    float64 `json:"wall_s"`
	StealS   float64 `json:"steal_s"`
	AdjWallS float64 `json:"adj_wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
}

func (m mark) usage() usage {
	end := takeMark()
	u := usage{
		WallS:   end.at.Sub(m.at).Seconds(),
		StealS:  float64(end.steal-m.steal) / userHZ,
		CPUS:    (end.cpu - m.cpu).Seconds(),
		AllocMB: float64(end.alloc-m.alloc) / 1e6,
	}
	u.AdjWallS = adjustWall(u.WallS, u.StealS, nproc())
	return u
}

// env stamps a result with the machine and source it was measured on, so
// two result sets are only compared when their timings are comparable.
type env struct {
	CPU        string `json:"cpu"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	// StateDir is where the traced coordinator keeps its journal and disk
	// caches; the untraced workloads keep all state in memory.
	StateDir string `json:"state_dir"`
}

func hostEnv(root string) env {
	e := env{
		CPU:        cpuModel(),
		Nproc:      nproc(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		StateDir:   stateRoot,
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		e.Commit = strings.TrimSpace(out)
		status, err := gitOutput(root, "status", "--porcelain")
		e.Dirty = err != nil || strings.TrimSpace(status) != ""
	}
	return e
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return string(out), err
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
