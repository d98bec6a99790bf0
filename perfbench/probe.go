package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe measures how fast the host runs fixed work while a
// batch runs. A shared host's speed drifts by a factor of up to two, within
// seconds and over minutes (neighbours' load on the same cores, caches and
// memory bus), and the drift moves every host time of a run alike. A child
// process keeps one sampler thread pinned to each CPU the benchmark may
// use. Every probeEvery, each sampler runs a small simulator-like kernel —
// a 4-ary min-heap of event keys, hash-map lookups and random reads over a
// working set larger than the core's L2 cache, none of it tfcsim code —
// and times it in thread CPU time, so time spent descheduled does not
// count. The benchmark scales each batch's host times by probeRefNs ÷ the
// mean kernel time during the batch: it reports the time the batch would
// take on a reference host, one on which the kernel takes probeRefNs. The
// samplers cost about 3% of one core.

const (
	probeHeap  = 1 << 12               // heap entries
	probeKeys  = 1 << 12               // map entries
	probeWords = 1 << 19               // 4 MiB of uint64
	probeSteps = 1 << 11               // kernel iterations per sample
	probeEvery = 40 * time.Millisecond // per CPU
	// probeRefNs is the kernel's thread CPU time on the reference host.
	probeRefNs = 250e3
)

// probeKernel is the probe's working set.
type probeKernel struct {
	heap []uint64
	keys map[uint32]uint32
	mem  []uint64
	x    uint64
	sum  uint64
}

func newProbeKernel() *probeKernel {
	k := &probeKernel{
		heap: make([]uint64, probeHeap),
		keys: make(map[uint32]uint32, probeKeys),
		mem:  make([]uint64, probeWords),
		x:    0x9e3779b97f4a7c15,
	}
	for i := range k.mem {
		k.x = xorshift(k.x)
		k.mem[i] = k.x
	}
	for i := uint32(0); i < probeKeys; i++ {
		k.x = xorshift(k.x)
		k.keys[uint32(k.x)] = i
	}
	for i := range k.heap {
		k.heap[i] = uint64(i) * 3
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run does probeSteps iterations: replace the heap's minimum by a later
// key and sift it down, look up a key that is in the map one time in two,
// and read a random word of the working set.
func (k *probeKernel) run() {
	h, mem, x, sum := k.heap, k.mem, k.x, k.sum
	for s := 0; s < probeSteps; s++ {
		x = xorshift(x)
		v := h[0] + 1 + x%1024
		i := 0
		for {
			c := 4*i + 1
			if c >= len(h) {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < len(h); j++ {
				if h[j] < h[m] {
					m = j
				}
			}
			if h[m] >= v {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = v
		key := uint32(x >> 32)
		if s&1 == 0 {
			key = uint32(s) // absent unless it collides
		}
		if n, ok := k.keys[key]; ok {
			sum += uint64(n)
		}
		sum += mem[x%probeWords]
	}
	k.x, k.sum = x, sum
}

// threadCPUNs is the calling OS thread's CPU time.
func threadCPUNs() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		fatal(fmt.Errorf("clock_gettime: %v", e))
	}
	return ts.Nano()
}

// serveProbe is the probe child process. A line "start" on standard input
// opens a window; a line "stop" closes it and prints the mean kernel time
// in ns over the window's samples (the latest sample, if the window was
// too short to hold one). It returns, stopping the samplers, when in
// closes.
func serveProbe(in io.Reader, out io.Writer) {
	var (
		mu         sync.Mutex
		sum, last  float64
		n          int
		open, seen bool
		quit       = make(chan struct{})
	)
	defer close(quit)
	for _, cpu := range allowedCPUs() {
		go func(cpu int) {
			runtime.LockOSThread() // never unlocked: the thread ends with the sampler
			pinThread(cpu)
			k := newProbeKernel()
			k.run() // warm the caches and the branch predictor
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
				}
				t0 := threadCPUNs()
				k.run()
				ns := float64(threadCPUNs() - t0)
				mu.Lock()
				if open {
					sum += ns
					n++
				}
				last, seen = ns, true
				mu.Unlock()
			}
		}(cpu)
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch sc.Text() {
		case "start":
			mu.Lock()
			sum, n, open = 0, 0, true
			mu.Unlock()
		case "stop":
			// Wait for the first sample if the window closed before any
			// sampler had run; the loop leaves holding mu.
			for {
				mu.Lock()
				if seen {
					break
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
			mean := last
			if n > 0 {
				mean = sum / float64(n)
			}
			open = false
			mu.Unlock()
			if _, err := fmt.Fprintf(out, "%g\n", mean); err != nil {
				os.Exit(1)
			}
		}
	}
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return []int{-1}
	}
	var cpus []int
	for i := 0; i < 64*len(mask); i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread binds the calling OS thread to one CPU; cpu < 0 leaves it
// unbound.
func pinThread(cpu int) {
	if cpu < 0 {
		return
	}
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fatal(fmt.Errorf("sched_setaffinity: %v", e))
	}
}

// hostProbe is the parent's handle on the probe child process. A nil
// probe corrects nothing: its windows read probeRefNs.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// liveProbe is the running probe, which fatal stops on the way out.
var liveProbe *hostProbe

func startProbe() *hostProbe {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cmd := exec.Command(self, "--probe")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(fmt.Errorf("host probe: %v", err))
	}
	p := &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}
	liveProbe = p
	return p
}

// begin opens a sampling window.
func (p *hostProbe) begin() {
	if p == nil {
		return
	}
	if _, err := io.WriteString(p.in, "start\n"); err != nil {
		fatal(fmt.Errorf("host probe: %v", err))
	}
}

// end closes the window and returns the mean kernel time in ns.
func (p *hostProbe) end() float64 {
	if p == nil {
		return probeRefNs
	}
	if _, err := io.WriteString(p.in, "stop\n"); err != nil {
		fatal(fmt.Errorf("host probe: %v", err))
	}
	line, err := p.out.ReadString('\n')
	var ns float64
	if err == nil {
		ns, err = strconv.ParseFloat(strings.TrimSpace(line), 64)
	}
	if err == nil && ns <= 0 {
		err = fmt.Errorf("kernel time %g ns", ns)
	}
	if err != nil {
		fatal(fmt.Errorf("host probe: %v", err))
	}
	return ns
}

// close stops the child and waits for it to exit.
func (p *hostProbe) close() {
	if p == nil || p.cmd == nil {
		return
	}
	p.in.Close()
	p.cmd.Wait()
	p.cmd = nil
}
