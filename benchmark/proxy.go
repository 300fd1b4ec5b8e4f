package main

import (
	"net"
	"sync"
	"time"
)

// delayProxy is the latency proxy of bench_streamrounds_test.go, made
// closable: it exposes a backend behind a loopback listener that delivers
// every chunk a fixed propagation delay after it was read, in each
// direction. Bandwidth is unconstrained and order is preserved. The delay is
// a sleep in this process, not a link.
type delayProxy struct {
	ln      net.Listener
	backend string
	delay   time.Duration

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

func newDelayProxy(backend string, delay time.Duration) (*delayProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &delayProxy{ln: ln, backend: backend, delay: delay, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *delayProxy) addr() string { return p.ln.Addr().String() }

// track registers a connection for close; false means the proxy is closing.
func (p *delayProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *delayProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		if !p.track(c) || !p.track(b) {
			c.Close()
			b.Close()
			return
		}
		p.wg.Add(2)
		go p.pipe(c, b)
		go p.pipe(b, c)
	}
}

// delayChunk is one read buffered for delivery after the propagation delay.
type delayChunk struct {
	at   time.Time
	data []byte
}

// pipe forwards src to dst, each chunk one delay after it was read.
func (p *delayProxy) pipe(src, dst net.Conn) {
	defer p.wg.Done()
	defer dst.Close()
	// Chunks in flight: a 64 KiB read every few microseconds for one delay's
	// worth of time stays far below this; a full queue only stalls the reader.
	q := make(chan delayChunk, 1024)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(q)
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				q <- delayChunk{at: time.Now().Add(p.delay), data: append([]byte(nil), buf[:n]...)}
			}
			if err != nil {
				return
			}
		}
	}()
	failed := false
	for c := range q {
		if failed {
			continue // keep draining so the reader can finish
		}
		if d := time.Until(c.at); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.data); err != nil {
			failed = true
			src.Close()
		}
	}
}

// close stops accepting, severs every proxied connection and waits for the
// forwarding goroutines.
func (p *delayProxy) close() {
	p.mu.Lock()
	p.done = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}
