package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"syscall"
	"unsafe"
)

// A virtual CPU with nothing to run halts, and waking it again costs
// the host's scheduling delay. On the shared 2-vCPU VM this benchmark
// was tuned on that delay showed as 15–40% hypervisor steal whenever a
// workload slept between operations, and it set the open loops'
// latency: fusion-paced's p90 moved between 1.5 and 8 ms from one
// minute to the next. Every run therefore keeps the CPUs from halting,
// as disabling deep idle states does on bare metal: a helper process
// spins one thread per CPU under SCHED_IDLE, a policy the kernel runs
// only when nothing else wants the CPU and preempts as soon as any
// other thread wakes. The helper's CPU time is its own, so the
// process CPU the metrics read (getrusage RUSAGE_SELF) excludes it.

// schedIdle is SCHED_IDLE from linux/sched.h.
const schedIdle = 5

// spinReady is the line the helper prints once every spinning thread
// runs under SCHED_IDLE.
const spinReady = "spinning"

// spinner is the running keep-awake helper.
type spinner struct{ cmd *exec.Cmd }

// stop kills the helper and waits for it to end. Kill fails only when
// the helper has already exited, and Wait then reports how it ended;
// the benchmark needs neither.
func (s *spinner) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// keepAwake starts the spinning helper (this binary run with -spin)
// and returns once every one of its threads spins under SCHED_IDLE.
func keepAwake() (*spinner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-spin")
	cmd.Stderr = os.Stderr
	// The helper dies with the benchmark even if the benchmark is
	// killed; it also watches its parent (see spin).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &spinner{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil || line != spinReady+"\n" {
		s.stop()
		return nil, fmt.Errorf("keep-awake helper did not start (%q, %v)", line, err)
	}
	return s, nil
}

// spin is the helper's body: one thread per CPU, each under SCHED_IDLE,
// spinning until the helper is killed or its parent is gone.
func spin() error {
	n := goruntime.NumCPU()
	goruntime.GOMAXPROCS(n)
	parent := os.Getppid()
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			goruntime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
				return
			}
			ready <- nil
			for k := uint64(1); ; k++ {
				if k&(1<<24-1) == 0 && os.Getppid() != parent {
					os.Exit(0)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			return err
		}
	}
	fmt.Println(spinReady)
	select {}
}
