package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference host is a shared 2-vCPU virtual machine whose speed
// drifts with its neighbours: the same binary on the same inputs runs
// 25–50 % slower for minutes at a time, with no steal time to show for it
// (process CPU time inflates along with wall time, so it is contention
// for what the cores share, not lost scheduling). That is far more than
// any bound a regression gate could use. The benchmark therefore
// measures the host beside the program: before every timed section it
// times a small fixed kernel, and reports wall and CPU times scaled to
// the speed the kernel saw — time at nominal host speed. The kernel
// belongs to the benchmark, not to the program, so no change to the
// program can move it; what the scaling removes is the part of the
// variation that hits every instruction stream on the machine alike.
// README.md ("Host-speed scaling") has the measurements behind it.

// kernelNominal is the kernel's running time on the reference host when
// it is quiet. It only fixes the scale: there, scaled and raw agree.
const kernelNominal = 3500 * time.Microsecond

// kernelKeys and kernelPayload are the kernel's fixed inputs.
var (
	kernelKeys = func() []string {
		keys := make([]string, 4000)
		for i := range keys {
			keys[i] = fmt.Sprintf("s%08d", i)
		}
		return keys
	}()
	kernelPayload = strings.Repeat("x", 256)
)

// kernelWork is the calibration workload: build 8,000 records by string
// concatenation, count them by key in a map, sort them. It is made of
// what the record path is made of — small allocations, memmove, hashing,
// comparison sorting — because a kernel of plain copies, dependent loads
// and an integer sort was tried first and tracked the program's
// slow-downs poorly.
func kernelWork() int {
	const n = 8000
	recs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, kernelKeys[(i*7919)%len(kernelKeys)]+"\x00"+kernelPayload)
	}
	groups := make(map[string]int, len(kernelKeys))
	for _, r := range recs {
		groups[r[:9]]++
	}
	sort.Strings(recs)
	return len(groups) + len(recs[0])
}

// runKernels times one kernel per processor, all at once, until the last
// has finished: a neighbour slowing either virtual CPU slows it just as
// it slows the program's worker pool.
func runKernels(procs int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernelWork()
		}()
	}
	sink += kernelWork()
	wg.Wait()
	return time.Since(t0)
}

// probeServeArg is the hidden first argument under which this binary
// serves kernel timings instead of running a workload.
const probeServeArg = "-serve-host-probe"

// serveHostProbe is the child side: for every byte read it runs the
// kernels once and answers with the nanoseconds they took. It runs in
// its own process because the kernel allocates: run inside the
// benchmark's process, its speed followed the size and state of the
// program's heap (0.33–0.56 of nominal beside syn_large and svc_durable,
// 0.59–0.97 beside syn_small, same host), so a change to the program's
// memory use would have moved the yardstick. Here the heap is the
// kernel's own: collection is off while it runs and forced after.
func serveHostProbe(procs int, in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(-1)
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadByte(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := fmt.Fprintf(out, "%d\n", runKernels(procs).Nanoseconds()); err != nil {
			return err
		}
		runtime.GC()
	}
}

// servedHostProbe runs the child side and reports true when the process
// was started as a host probe (by main or by a test binary's TestMain).
func servedHostProbe() bool {
	if len(os.Args) != 3 || os.Args[1] != probeServeArg {
		return false
	}
	procs, err := strconv.Atoi(os.Args[2])
	if err == nil {
		err = serveHostProbe(procs, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: host probe:", err)
		os.Exit(1)
	}
	return true
}

// hostProbe is the parent side: the child process and its pipes.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	err error // first failure; run keeps returning 0 after it
	// stopped makes stop idempotent: runs stop the child explicitly to
	// see its error, and again by defer on every other path.
	stopped bool
}

// startHostProbe starts the child: this same binary under probeServeArg.
func startHostProbe(procs int) (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, probeServeArg, fmt.Sprint(procs))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}
	// The first run pays for the child's start-up and page faults.
	h.run()
	return h, h.err
}

// run asks the child for one kernel timing. A nil probe (unit tests of
// pure functions) reports nominal speed.
func (h *hostProbe) run() time.Duration {
	if h == nil {
		return kernelNominal
	}
	if h.err != nil {
		return 0
	}
	if _, err := h.in.Write([]byte{1}); err != nil {
		h.err = fmt.Errorf("host probe: %w", err)
		return 0
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		h.err = fmt.Errorf("host probe: %w", err)
		return 0
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		h.err = fmt.Errorf("host probe: %w", err)
		return 0
	}
	return time.Duration(ns)
}

// stop ends the child and waits for it.
func (h *hostProbe) stop() error {
	if h == nil || h.stopped {
		return nil
	}
	h.stopped = true
	h.in.Close()
	if err := h.cmd.Wait(); err != nil && h.err == nil {
		h.err = fmt.Errorf("host probe: %w", err)
	}
	return h.err
}

// hostSpeed turns kernel timings into the factor that scales times
// measured beside them to nominal host speed: below 1 when the host was
// slow. The mean, not the median: a round's total time follows the
// average slowness over the round.
func hostSpeed(samples []time.Duration) float64 {
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	if total == 0 {
		return 1 // no probe, or it failed: the run reports the failure
	}
	return float64(kernelNominal) * float64(len(samples)) / float64(total)
}
