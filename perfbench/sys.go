package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns the user + system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns user + system CPU time of process pid from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis start at field 3 (state).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the high-water resident set (VmHWM) of the process
// ("self" or a pid) in MiB.
func peakRSSMB(proc string) (float64, error) {
	b, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
}

// hostCPUTicks returns the steal and total CPU time of the host's CPUs, in
// clock ticks, from the first line of /proc/stat.
func hostCPUTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
