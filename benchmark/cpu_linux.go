//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids: the CPU time of the whole process and of the calling
// thread. Both advance only while a thread of the process runs, so time
// spent waiting for a CPU (a runnable thread, or a vCPU the hypervisor
// took away, which the kernel accounts as steal) is left out.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time all threads of the process have used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
