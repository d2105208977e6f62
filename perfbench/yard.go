package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"
)

// The yardstick is a fixed amount of plain Go work that uses nothing of
// the repository: map updates, small allocations and a sort, then round
// trips of a short line over loopback TCP between two goroutines. The
// benchmark reads it between its samples to learn how fast the machine is
// at that moment. On a shared virtual machine that speed is not constant:
// the CPU time of the same work has been seen to double within a minute,
// when neighbours load the host, and to stay doubled for minutes. CPU time
// already leaves out the time the host withholds; dividing by the
// yardstick's CPU time, read on either side of each sample, also takes out
// the slowdown of every instruction. So every gated CPU time is given in
// reference CPU seconds: the measured CPU time times yardRef over the mean
// of the two readings. The yardstick is the benchmark's own code, so a
// change to the program cannot move it. Its two parts stand for the two
// kinds of work the workloads do: computation (campaigns) and small
// messages between threads through the kernel (the daemon's round trips).
const (
	yardKernelCalls = 100  // compute kernel calls in one reading
	yardEchoTrips   = 3000 // loopback round trips in one reading
	yardLine        = 200  // bytes per echoed line, newline included
	// yardRef is about the CPU time of one reading on an otherwise idle
	// 2-vCPU Xeon VM. It only sets the unit: any constant would do, so long
	// as it does not change between the runs being compared.
	yardRef = 120 * time.Millisecond
)

// yardKernel is one unit of the yardstick's compute part. It returns a
// value derived from all of its work so the compiler cannot drop any.
func yardKernel(seed uint64) uint64 {
	m := make(map[uint64]uint64, 512)
	keys := make([]uint64, 0, 2048)
	x := seed | 1
	for i := 0; i < 16384; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&1023] += x
		if i&7 == 0 {
			keys = append(keys, x)
		}
	}
	slices.Sort(keys)
	sum := keys[len(keys)/2]
	for _, v := range m {
		sum ^= v
	}
	return sum
}

// yardstick holds a loopback connection to an echo goroutine for the
// length of a run, and every reading taken on it.
type yardstick struct {
	ln   net.Listener
	conn net.Conn
	r    *bufio.Reader
	line []byte
	done chan struct{} // closed when the echo goroutine has returned
	sink uint64
	// readings are the CPU times of the readings, in order.
	readings []time.Duration
}

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	y := &yardstick{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(y.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			if _, err := c.Write(line); err != nil {
				return
			}
		}
	}()
	if y.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-y.done
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	y.r = bufio.NewReader(y.conn)
	y.line = make([]byte, yardLine)
	for i := range y.line {
		y.line[i] = 'y'
	}
	y.line[yardLine-1] = '\n'
	return y, nil
}

// read takes one reading and returns its CPU time.
func (y *yardstick) read() (time.Duration, error) {
	c0 := cpuTime()
	for i := 0; i < yardKernelCalls; i++ {
		y.sink += yardKernel(uint64(i))
	}
	for i := 0; i < yardEchoTrips; i++ {
		if _, err := y.conn.Write(y.line); err != nil {
			return 0, fmt.Errorf("yardstick: %w", err)
		}
		echo, err := y.r.ReadSlice('\n')
		if err != nil {
			return 0, fmt.Errorf("yardstick: %w", err)
		}
		if len(echo) != yardLine {
			return 0, errors.New("yardstick: echo of the wrong length")
		}
	}
	d := cpuTime() - c0
	y.readings = append(y.readings, d)
	return d, nil
}

// close ends the echo goroutine and waits for it.
func (y *yardstick) close() {
	y.conn.Close()
	y.ln.Close()
	<-y.done
}

// refCPU converts a CPU time measured between two readings into reference
// CPU seconds.
func refCPU(cpu, before, after time.Duration) float64 {
	return cpu.Seconds() * yardRef.Seconds() / ((before + after).Seconds() / 2)
}

// speedNote describes the run's readings for the human lines: their median
// as the machine's speed relative to the reference, and their range.
func (y *yardstick) speedNote() string {
	xs := durations(y.readings, time.Second)
	if len(xs) == 0 {
		return "no yardstick readings"
	}
	return fmt.Sprintf("machine at %.2fx reference speed (%d yardstick readings, median %.4fs CPU, range %.4f-%.4fs)",
		yardRef.Seconds()/median(xs), len(xs), median(xs), slices.Min(xs), slices.Max(xs))
}
