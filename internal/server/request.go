package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/xag"
)

// One versioned request schema. Every way of submitting work — sync JSON
// envelope, raw Bristol with query parameters, batch items, async jobs —
// decodes through decodeEnvelope/decodeSync into the same decodedRequest,
// so there is exactly one place options are parsed, defaulted, validated,
// and range-checked. Unknown JSON fields and unknown query parameters are
// rejected with CodeUnknownField rather than ignored. The query-parameter
// form survives for existing raw-Bristol callers but is deprecated: it
// tags the response with a "Deprecation: true" header and logs one line
// per process. The retired sequential_commit option is treated the same
// way: accepted, ignored, and tagged.

// decodedRequest is one fully-decoded, validated unit of optimization work.
type decodedRequest struct {
	net   *xag.Network
	opts  RequestOptions
	model cost.Model
	// wantNetJSON: the caller sent a JSON gate list, so the response should
	// carry one too.
	wantNetJSON bool
	// deprecated: options arrived in the query string, or the request set
	// the retired sequential_commit option.
	deprecated bool
}

// decodeEnvelope decodes and validates a JSON envelope — the schema shared
// verbatim by POST /v1/optimize (JSON), each batch item, and job
// submission.
func (s *Server) decodeEnvelope(body []byte) (*decodedRequest, *apiError) {
	var req OptimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := CodeInvalidRequest
		if strings.Contains(err.Error(), "unknown field") {
			code = CodeUnknownField
		}
		return nil, errf(http.StatusBadRequest, code, "", "request json: %v", err)
	}
	dr := &decodedRequest{opts: req.Options}
	switch {
	case req.Bristol != "" && req.Network != nil:
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "", `request sets both "bristol" and "network"`)
	case req.Bristol != "":
		net, err := xag.ReadBristol(strings.NewReader(req.Bristol))
		if err != nil {
			return nil, errf(http.StatusBadRequest, CodeInvalidNetwork, "bristol", "%v", err)
		}
		dr.net = net
	case req.Network != nil:
		net, err := req.Network.Build()
		if err != nil {
			return nil, errf(http.StatusBadRequest, CodeInvalidNetwork, "network", "%v", err)
		}
		dr.net = net
		dr.wantNetJSON = true
	default:
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "", `request needs "bristol" or "network"`)
	}
	if apiErr := dr.finish(s.cfg); apiErr != nil {
		return nil, apiErr
	}
	return dr, nil
}

// decodeSync decodes a POST /v1/optimize body: a JSON Content-Type selects
// the envelope, anything else is raw Bristol text with options in the
// (deprecated) query string.
func (s *Server) decodeSync(r *http.Request, body []byte) (*decodedRequest, *apiError) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		return s.decodeEnvelope(body)
	}
	opts, deprecated, apiErr := optionsFromQuery(r)
	if apiErr != nil {
		return nil, apiErr
	}
	net, err := xag.ReadBristol(bytes.NewReader(body))
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidNetwork, "bristol", "%v", err)
	}
	dr := &decodedRequest{net: net, opts: opts, deprecated: deprecated}
	if apiErr := dr.finish(s.cfg); apiErr != nil {
		return nil, apiErr
	}
	return dr, nil
}

// finish applies defaults, range-checks every option the way mcopt does at
// its flag boundary, and resolves the cost model.
func (dr *decodedRequest) finish(cfg Config) *apiError {
	o := &dr.opts
	if o.Cost == "" {
		o.Cost = "mc"
	}
	model, err := cost.FromName(o.Cost)
	if err != nil {
		return errf(http.StatusBadRequest, CodeInvalidOption, "cost", "%v", err)
	}
	switch {
	case o.MaxRounds < 0:
		return errf(http.StatusBadRequest, CodeInvalidOption, "max_rounds", "max_rounds must not be negative, got %d", o.MaxRounds)
	case o.Workers < 0:
		return errf(http.StatusBadRequest, CodeInvalidOption, "workers", "workers must not be negative, got %d", o.Workers)
	case o.CutSize != 0 && (o.CutSize < 2 || o.CutSize > 6):
		return errf(http.StatusBadRequest, CodeInvalidOption, "cut_size", "cut_size must be in 2..6, got %d", o.CutSize)
	case o.DeadlineMS < 0:
		return errf(http.StatusBadRequest, CodeInvalidOption, "deadline_ms", "deadline must not be negative, got %dms", o.DeadlineMS)
	}
	if o.SequentialCommit {
		dr.deprecated = true
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers > cfg.MaxRequestWorkers {
		o.Workers = cfg.MaxRequestWorkers
	}
	dr.model = model
	return nil
}

// queryParams maps each legacy query parameter onto its RequestOptions
// field; anything else in the query string is an unknown field.
var queryParams = map[string]func(o *RequestOptions, v string) error{
	"cost":    func(o *RequestOptions, v string) error { o.Cost = v; return nil },
	"rounds":  func(o *RequestOptions, v string) error { return setInt(&o.MaxRounds, v) },
	"workers": func(o *RequestOptions, v string) error { return setInt(&o.Workers, v) },
	"k":       func(o *RequestOptions, v string) error { return setInt(&o.CutSize, v) },
	"verify":  func(o *RequestOptions, v string) error { return setBool(&o.Verify, v) },
	"zero-gain": func(o *RequestOptions, v string) error {
		return setBool(&o.ZeroGain, v)
	},
	"seq-commit": func(o *RequestOptions, v string) error {
		return setBool(&o.SequentialCommit, v)
	},
	"incremental": func(o *RequestOptions, v string) error {
		var b bool
		if err := setBool(&b, v); err != nil {
			return err
		}
		o.Incremental = &b
		return nil
	},
	"deadline": func(o *RequestOptions, v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		o.DeadlineMS = int(d / time.Millisecond)
		if o.DeadlineMS == 0 && d > 0 {
			o.DeadlineMS = 1 // sub-millisecond, not unset: round up
		}
		return nil
	},
}

func setInt(dst *int, v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

func setBool(dst *bool, v string) error {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*dst = b
	return nil
}

// optionsFromQuery maps query parameters onto RequestOptions for raw
// Bristol requests. deprecated reports whether any parameter was present —
// the bare legacy form with no options draws no warning.
func optionsFromQuery(r *http.Request) (RequestOptions, bool, *apiError) {
	var o RequestOptions
	q := r.URL.Query()
	deprecated := false
	for name, vals := range q {
		set, ok := queryParams[name]
		if !ok {
			return o, false, errf(http.StatusBadRequest, CodeUnknownField, name, "unknown query parameter %q", name)
		}
		deprecated = true
		for _, v := range vals {
			if err := set(&o, v); err != nil {
				return o, false, errf(http.StatusBadRequest, CodeInvalidOption, name, "query %s: %v", name, err)
			}
		}
	}
	return o, deprecated, nil
}

// deadline resolves the request deadline under the configured cap.
func (o RequestOptions) deadline(cfg Config) time.Duration {
	d := time.Duration(o.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = cfg.DefaultDeadline
	}
	if d > cfg.MaxDeadline {
		d = cfg.MaxDeadline
	}
	return d
}
