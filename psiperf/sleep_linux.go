package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// sleeper parks its goroutine for d ns with microsecond precision and
// without holding a P. time.Sleep cannot do the first: when every
// goroutine is parked, the runtime waits in epoll with a timeout in
// whole milliseconds, so a 400 µs gap in the schedule lasts a
// millisecond or more, and latency, which counts from due time, is
// charged for it. A raw nanosleep cannot do the second: the goroutine
// keeps its P until the runtime's monitor retakes it, and on two cores
// two sleeping senders starve the server of both Ps. A timerfd read
// through the netpoller parks like a socket read and wakes when the
// timer fires.
type sleeper struct {
	fd   uintptr
	f    *os.File
	spec [4]int64 // itimerspec: it_interval (0: one-shot), it_value
	buf  [8]byte
}

const clockMonotonic = 1

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) sleep(d int64) error {
	s.spec = [4]int64{0, 0, d / 1e9, d % 1e9}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&s.spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := s.f.Read(s.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (s *sleeper) close() error { return s.f.Close() }
