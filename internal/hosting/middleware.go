// middleware.go is the HTTP middleware chain under the v1 router: request
// logging, CORS (the paper's client is a browser extension — cross-origin by
// definition), per-token rate limiting and bearer-token auth extraction. The
// resolved user travels in the request context; handlers never touch the
// Authorization header themselves.
package hosting

import (
	"context"
	"crypto/subtle"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ServerOption configures a Server at construction time.
type ServerOption func(*Server)

// WithAllowedOrigin sets the CORS allowed origin. The default is "*" (any
// origin may read); pass the extension's origin to restrict, or the empty
// string to disable CORS handling entirely.
func WithAllowedOrigin(origin string) ServerOption {
	return func(s *Server) { s.corsOrigin = origin }
}

// WithRateLimit enables per-token rate limiting: each API token (anonymous
// callers are keyed by client IP) gets a token bucket refilled at rps
// requests per second with the given burst capacity. Exceeding it yields
// 429 with code "rate_limited". Rate limiting is off by default.
func WithRateLimit(rps float64, burst int) ServerOption {
	return func(s *Server) {
		s.limiter = newRateLimiter(rps, burst)
	}
}

// WithRequestLogger makes the server log one line per request (method, path,
// status, duration, client key). Logging is off by default.
func WithRequestLogger(l *log.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// ctxKey namespaces context values set by the middleware chain.
type ctxKey int

const ctxKeyUser ctxKey = iota

// userFrom returns the authenticated user stored by the auth middleware, or
// nil for anonymous requests.
func userFrom(ctx context.Context) *User {
	u, _ := ctx.Value(ctxKeyUser).(*User)
	return u
}

// bearerToken extracts the Bearer token from the Authorization header.
func bearerToken(r *http.Request) string {
	if t, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return t
	}
	return ""
}

// withAuth resolves the bearer token once per request and stores the user in
// the context. Requests without a token proceed anonymously (public read);
// requests with an invalid token are rejected outright.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok := bearerToken(r)
		if tok == "" {
			next.ServeHTTP(w, r)
			return
		}
		if s.adminToken != "" && subtle.ConstantTimeCompare([]byte(tok), []byte(s.adminToken)) == 1 {
			// The admin token is an operator credential, not an account:
			// it resolves to no user (admin.go gates the admin routes).
			next.ServeHTTP(w, r)
			return
		}
		u, err := s.platform.Authenticate(r.Context(), tok)
		if err != nil {
			writeErr(w, err)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyUser, u)))
	})
}

// withCORS answers preflight OPTIONS requests and stamps Access-Control
// headers on everything else, per the configured allowed origin.
func (s *Server) withCORS(next http.Handler) http.Handler {
	if s.corsOrigin == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		origin := r.Header.Get("Origin")
		if origin != "" && (s.corsOrigin == "*" || s.corsOrigin == origin) {
			h := w.Header()
			if s.corsOrigin == "*" {
				h.Set("Access-Control-Allow-Origin", "*")
			} else {
				h.Set("Access-Control-Allow-Origin", origin)
				h.Add("Vary", "Origin")
			}
			h.Set("Access-Control-Expose-Headers", "ETag")
		}
		if r.Method == http.MethodOptions && r.Header.Get("Access-Control-Request-Method") != "" {
			h := w.Header()
			h.Set("Access-Control-Allow-Methods", "GET, POST, PUT, DELETE, OPTIONS")
			h.Set("Access-Control-Allow-Headers", "Authorization, Content-Type, If-None-Match")
			h.Set("Access-Control-Max-Age", "600")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withRateLimit enforces the per-token budget before any handler work.
// Rejections carry Retry-After so well-behaved clients (the extension
// client honors it) wait the advised interval instead of hammering the
// backoff path. The probe paths (the route table's probe rows) bypass the
// limiter: a load balancer polling /healthz must never be throttled into
// marking the node dead.
func (s *Server) withRateLimit(next http.Handler, probes []string) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slices.Contains(probes, r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if ok, retryAfter := s.limiter.allow(clientKey(r)); !ok {
			secs := int(retryAfter/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
				Code:  CodeRateLimited,
				Error: "hosting: rate limit exceeded",
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withLogging records one line per completed request.
func (s *Server) withLogging(next http.Handler) http.Handler {
	if s.logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.logger.Printf("%s %s -> %d (%s) key=%s",
			r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond), logKey(r))
	})
}

// logKey is clientKey redacted for logs: API tokens are credentials, so
// only a short prefix is emitted — enough to correlate a caller's requests
// without leaking the secret.
func logKey(r *http.Request) string {
	if tok := bearerToken(r); tok != "" {
		if len(tok) > 10 {
			tok = tok[:10] + "…"
		}
		return "tok:" + tok
	}
	return clientKey(r)
}

// clientKey identifies a caller for rate limiting and logs: the API token
// when present, otherwise the client IP.
func clientKey(r *http.Request) string {
	if tok := bearerToken(r); tok != "" {
		return tok
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "anon:" + host
}

// statusWriter captures the response status for the request log while
// forwarding Flush to streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// rateLimiter is a token-bucket limiter keyed by client. The bucket map is
// bounded; at capacity an arbitrary idle bucket is evicted (victims restart
// with a full burst, which only ever errs in the caller's favour).
type rateLimiter struct {
	mu      sync.Mutex
	rps     float64
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

const rateLimiterMaxBuckets = 4096

func newRateLimiter(rps float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rps:     rps,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from key's bucket. On refusal it also reports how
// long until the bucket refills enough for one request — the Retry-After
// interval advertised to the client.
func (l *rateLimiter) allow(key string) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= rateLimiterMaxBuckets {
			for k := range l.buckets {
				delete(l.buckets, k)
				break
			}
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rps
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		var wait time.Duration
		if l.rps > 0 {
			wait = time.Duration((1 - b.tokens) / l.rps * float64(time.Second))
		}
		return false, wait
	}
	b.tokens--
	return true, 0
}
