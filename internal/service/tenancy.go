package service

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"prunesim/internal/tenant"
)

// withTenant is the tenancy middleware applied uniformly to every /v1
// route (the route registry wraps handlers in Handler, so an endpoint
// cannot be added without being covered): resolve the API key, spend one
// token from the tenant's bucket, then pass the request on unchanged. A
// handler that needs the tenant resolves it again (requestTenant); only
// job submission does, so no other request pays for a context copy.
//
// The two refusals here are per-tenant and deliberately distinct from the
// queue's global backpressure: an unknown key is 401 unauthorized, an
// empty bucket is 429 rate_limited with Retry-After saying when the next
// token accrues.
func (s *Server) withTenant(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, ok := s.tenants.Resolve(tenant.Key(r))
		if !ok {
			s.metrics.Unauthorized.Add(1)
			apiError(w, http.StatusUnauthorized, CodeUnauthorized, "unknown API key (check the daemon's -keys file)")
			return
		}
		if allowed, retry := tn.Allow(); !allowed {
			s.metrics.RateLimited.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			apiError(w, http.StatusTooManyRequests, CodeRateLimited,
				"tenant %s is over its request rate (%g QPS sustained); retry later",
				tn.Name(), tn.Limits().RateQPS)
			return
		}
		next(w, r)
	}
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// requestTenant resolves the request's API key to the tenant the
// middleware charged, falling back to the anonymous tenant for a key it
// does not know (programmatic callers and tests invoking handlers
// directly).
func (s *Server) requestTenant(r *http.Request) *tenant.Tenant {
	if tn, ok := s.tenants.Resolve(tenant.Key(r)); ok {
		return tn
	}
	return s.tenants.Anonymous()
}
