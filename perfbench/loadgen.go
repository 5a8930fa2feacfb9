package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

type opKind uint8

const (
	opAudit opKind = iota
	opPublish
	opStats
)

// op is one scheduled request of an open-loop phase.
type op struct {
	due  time.Duration // send time, as an offset from the phase start
	kind opKind
	idx  int // candidate index (audits) or publish number (publishes)
	req  []byte
	keep bool // retain the response body for checking
}

// sample is what the generator observed for one op. Latency is timed
// from due, not from sent: a request that could not be sent on time
// because the connections were busy carries that wait (no coordinated
// omission). sent-due is the generator's own lag.
type sample struct {
	sent, done time.Duration
	status     int // 0: transport error
	body       []byte
}

// runOpenLoop sends ops (sorted by due) over conns keep-alive HTTP/1.1
// connections to addr, each op at its due time whether or not earlier
// ones have completed. Publishes are serialized — the writer is one
// client that waits for each acknowledgement — so their versions are
// strictly ordered. It returns one sample per op.
func runOpenLoop(addr string, conns int, ops []op) ([]sample, error) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var writer sync.Mutex
	errs := make(chan error, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				errs <- err
				return
			}
			defer pc.close()
			c, err := dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer func() {
				if c != nil {
					c.close()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				if err := pc.sleepUntil(start.Add(o.due)); err != nil {
					errs <- err
					return
				}
				if o.kind == opPublish {
					err = publish(&writer, c, o, &samples[i], start)
				} else {
					err = send(c, o, &samples[i], start)
				}
				if err != nil {
					c.close()
					if c, err = dial(addr); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return samples, err
	}
	return samples, nil
}

// send runs one op on c, recording its sample.
func send(c *conn, o *op, s *sample, start time.Time) (err error) {
	s.sent = time.Since(start)
	s.status, s.body, err = c.roundTrip(o.req, o.keep || o.kind != opAudit)
	s.done = time.Since(start)
	return err
}

// publish is send for a delta publish, which waits for the previous
// publish's acknowledgement first.
func publish(writer *sync.Mutex, c *conn, o *op, s *sample, start time.Time) error {
	writer.Lock()
	defer writer.Unlock()
	return send(c, o, s, start)
}

// pacer sleeps a goroutine until a due time. Go's timers are checked on
// every scheduling decision, so they fire on time while the process is
// busy, but an idle process waits for them in epoll with millisecond
// granularity: sleeping alone made the generator send ~0.4 ms late at
// the median, longer than the audit it times. A timerfd armed for the
// same instant and registered with the runtime's netpoller wakes that
// epoll wait on time. Neither spins nor holds a P while waiting, so both
// cores stay with the server.
type pacer struct {
	f  *os.File
	rc syscall.RawConn
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "timerfd") // non-blocking, so registered with the netpoller
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pacer{f: f, rc: rc}, nil
}

// sleepUntil blocks until t (returning at once if t has passed).
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec {it_interval, it_value}: one-shot, relative.
	// Arming resets the expiry count, so the fd never needs reading: its
	// only job is to end the netpoller's wait at d.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if err := p.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	time.Sleep(d)
	return nil
}

func (p *pacer) close() { p.f.Close() }

// ioTimeout bounds one request's write and response read, so a hung
// server fails the run instead of hanging it.
const ioTimeout = 20 * time.Second

type conn struct {
	nc net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *conn) close() { c.nc.Close() }

// roundTrip writes one pre-built request and reads its response,
// returning the body only when keep is set. The reader handles what the
// server sends — a status line, headers, a Content-Length body — without
// allocating, so the generator adds as little GC work as it can to the
// process it shares with the server.
func (c *conn) roundTrip(req []byte, keep bool) (int, []byte, error) {
	if err := c.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.nc.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if keep {
		body := make([]byte, length)
		_, err := io.ReadFull(c.br, body)
		return status, body, err
	}
	_, err = c.br.Discard(length)
	return status, nil, err
}
