package transport

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"os"
	"sync"
	"time"
)

// dialTimeout bounds every connection attempt the package makes, TLS
// handshake included: a black-holed address turns into an error, not a hang.
const dialTimeout = 2 * time.Second

// dialConn opens one (possibly TLS) connection with a bounded dial.
func dialConn(addr string, tlsCfg *tls.Config, timeout time.Duration) (net.Conn, error) {
	d := &net.Dialer{Timeout: timeout}
	if tlsCfg != nil {
		return tls.DialWithDialer(d, "tcp", addr, tlsCfg)
	}
	return d.Dial("tcp", addr)
}

// Server accepts connections and hands each one to the stream handler its
// opening frame names. Every connection is a stream: the rounds subprotocol
// (StreamPeer clients, which is how the Handler is reached) or the OnStream
// handler.
type Server struct {
	ln     net.Listener
	rounds StreamHandler // the rounds subprotocol over the served Handler
	wg     sync.WaitGroup
	mu     sync.Mutex
	stream StreamHandler
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts accepting on ln; it returns immediately and handles
// connections on background goroutines. The rounds subprotocol is registered
// over h, so every served endpoint answers StreamPeer calls.
func Serve(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, rounds: roundsDispatcher(h), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen opens a TCP listener on addr (":0" for an ephemeral port) and
// serves h on it. If tlsCfg is non-nil the listener requires TLS.
func Listen(addr string, tlsCfg *tls.Config, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	return Serve(ln, h), nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// OnStream registers the handler for every stream other than the rounds
// subprotocol: it owns the connection's frames until it returns, after which
// the connection is closed. Without one, such opens are answered with a
// MsgError frame and the connection is dropped.
func (s *Server) OnStream(h StreamHandler) {
	s.mu.Lock()
	s.stream = h
	s.mu.Unlock()
}

// DropConns severs every active connection while leaving the listener up —
// clients see a transport error and re-dial onto the same server. It exists
// for fault-injection tests (a mid-round connection loss without a process
// kill); production failover drills kill the process instead.
func (s *Server) DropConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Close stops accepting, tears down active connections, and waits for the
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn reads a connection's opening frame and runs the stream handler
// it names. A first frame that is not MsgStreamOpen has no handler to go to:
// it is answered with MsgError and the connection is closed.
func (s *Server) serveConn(conn net.Conn) {
	msgType, payload, err := readFrame(conn)
	if err != nil {
		return
	}
	if msgType != MsgStreamOpen {
		_ = writeFrame(conn, MsgError, []byte("transport: expected a stream open frame")) // closing anyway
		return
	}
	sh := s.rounds
	if string(payload) != RoundsProto {
		s.mu.Lock()
		sh = s.stream
		s.mu.Unlock()
	}
	if sh == nil {
		_ = writeFrame(conn, MsgError, []byte("transport: no stream handler")) // closing anyway
		return
	}
	sh(payload, NewFrameConn(conn))
}

// SelfSignedTLS generates an in-memory certificate for host and returns the
// matching server and client TLS configurations. Production deployments
// would use a real PKI (the paper assumes one exists); for experiments and
// examples a pinned self-signed certificate provides the same channel
// properties.
func SelfSignedTLS(host string) (serverCfg, clientCfg *tls.Config, err error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 120))
	if err != nil {
		return nil, nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: host, Organization: []string{"prio"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * 365 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:              []string{host},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	if ip := net.ParseIP(host); ip != nil {
		tmpl.IPAddresses = []net.IP{ip}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		return nil, nil, err
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv}
	pool := x509.NewCertPool()
	parsed, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, err
	}
	pool.AddCert(parsed)
	serverCfg = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS13}
	clientCfg = &tls.Config{RootCAs: pool, ServerName: host, MinVersion: tls.VersionTLS13}
	return serverCfg, clientCfg, nil
}

// LoadServerTLS builds a server-side TLS configuration. With certFile and
// keyFile set it loads the pinned PEM pair; with both empty it falls back to
// a fresh self-signed certificate for host, which gives the channel
// confidentiality the paper assumes (§6.2) without a PKI — peers then either
// pin the certificate out of band or dial unauthenticated.
func LoadServerTLS(certFile, keyFile, host string) (*tls.Config, error) {
	if certFile == "" && keyFile == "" {
		cfg, _, err := SelfSignedTLS(host)
		return cfg, err
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, err
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS13}, nil
}

// ClientTLS builds a client-side TLS configuration. With caFile set, the
// dialed server must present a certificate chaining to that PEM bundle
// (pinning). With caFile empty, the connection is encrypted but the server
// unauthenticated — the default for self-signed deployments, where pinning
// requires distributing the generated certificate first.
func ClientTLS(caFile string) (*tls.Config, error) {
	if caFile == "" {
		return &tls.Config{InsecureSkipVerify: true, MinVersion: tls.VersionTLS13}, nil
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("transport: no certificates in %s", caFile)
	}
	return &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS13}, nil
}
