package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"vsresil/internal/journal"
)

// Mount attaches the coordinator API to a mux (the vsd service mounts
// it next to the job-queue API when running with -coordinator):
//
//	POST /v1/fabric/campaigns           submit a CampaignSpec to the cluster
//	GET  /v1/fabric/campaigns/{id}      cluster-wide progress
//	GET  /v1/fabric/campaigns/{id}/result   the finished campaign's result
//	POST /v1/fabric/lease               worker requests a shard lease
//	POST /v1/fabric/heartbeat           worker extends a lease, reports progress
//	POST /v1/fabric/results             worker submits a completed shard
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fabric/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /v1/fabric/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/fabric/campaigns/{id}/result", c.handleResult)
	mux.HandleFunc("POST /v1/fabric/lease", c.handleLease)
	mux.HandleFunc("POST /v1/fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/fabric/results", c.handleComplete)
}

// maxBodyBytes bounds protocol bodies; shard results carry retained
// SDC outputs, everything else is small.
const maxBodyBytes = 256 << 20

type submitRequest struct {
	Spec   CampaignSpec `json:"spec"`
	Shards int          `json:"shards"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Done   int    `json:"done"`
}

type okResponse struct {
	OK bool `json:"ok"`
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	id, err := c.Submit(req.Spec, req.Shards)
	if err != nil {
		writeFabricError(w, err)
		return
	}
	writeFabricJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := c.Status(r.PathValue("id"))
	if err != nil {
		writeFabricError(w, err)
		return
	}
	writeFabricJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := c.Result(r.PathValue("id"))
	if err != nil {
		writeFabricError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	l, ok, err := c.Lease(req.Worker)
	if err != nil {
		writeFabricError(w, err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeFabricJSON(w, http.StatusOK, l)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	writeFabricJSON(w, http.StatusOK, okResponse{OK: c.Heartbeat(req.Worker, req.Lease, req.Done)})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var res ShardResult
	if !decodeBody(w, r, &res, false) {
		return
	}
	accepted, err := c.Complete(res)
	if err != nil {
		writeFabricError(w, err)
		return
	}
	writeFabricJSON(w, http.StatusOK, okResponse{OK: accepted})
}

// decodeBody decodes a request body into v, answering 400 on failure.
// strict rejects unknown fields: the campaign submit endpoint is, so a
// misspelt spec knob fails instead of silently taking its default; the
// worker protocol stays lenient so mixed-version clusters interoperate.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, strict bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		writeFabricJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeFabricError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoCampaign):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		code = http.StatusConflict
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrResultTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, journal.ErrWrite):
		code = http.StatusInternalServerError
	}
	writeFabricJSON(w, code, map[string]string{"error": err.Error()})
}

// Client talks to a coordinator; cmd/afirun submits campaigns through
// it and fabric.Worker leases work through it.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// post sends v as JSON and decodes the response into out (when out is
// non-nil and the response is not 204).
func (cl *Client) post(ctx context.Context, path string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, apiError(resp.StatusCode, data)
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(data, out)
	}
	return resp.StatusCode, nil
}

func (cl *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return apiError(resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

func apiError(code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("fabric: coordinator: %s (HTTP %d)", e.Error, code)
	}
	return fmt.Errorf("fabric: coordinator returned HTTP %d", code)
}

// Submit sends a campaign to the cluster and returns its id.
func (cl *Client) Submit(ctx context.Context, spec CampaignSpec, shards int) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if _, err := cl.post(ctx, "/v1/fabric/campaigns", submitRequest{Spec: spec, Shards: shards}, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches cluster-wide campaign progress.
func (cl *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var st CampaignStatus
	err := cl.get(ctx, "/v1/fabric/campaigns/"+id, &st)
	return st, err
}

// Result fetches a finished static campaign's result.
func (cl *Client) Result(ctx context.Context, id string) (*CampaignResult, error) {
	var res CampaignResult
	if err := cl.get(ctx, "/v1/fabric/campaigns/"+id+"/result", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// AdaptiveResult fetches a finished adaptive campaign's wire result
// (the same endpoint as Result, decoded into the adaptive shape).
func (cl *Client) AdaptiveResult(ctx context.Context, id string) (*AdaptiveCampaignResult, error) {
	var res AdaptiveCampaignResult
	if err := cl.get(ctx, "/v1/fabric/campaigns/"+id+"/result", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Lease asks for a shard; ok is false when the cluster has no work.
func (cl *Client) Lease(ctx context.Context, worker string) (Lease, bool, error) {
	var l Lease
	code, err := cl.post(ctx, "/v1/fabric/lease", leaseRequest{Worker: worker}, &l)
	if err != nil {
		return Lease{}, false, err
	}
	return l, code != http.StatusNoContent, nil
}

// Heartbeat extends a lease; ok false means the lease is gone and the
// worker should abandon the shard.
func (cl *Client) Heartbeat(ctx context.Context, worker, leaseID string, done int) (bool, error) {
	var out okResponse
	if _, err := cl.post(ctx, "/v1/fabric/heartbeat", heartbeatRequest{Worker: worker, Lease: leaseID, Done: done}, &out); err != nil {
		return false, err
	}
	return out.OK, nil
}

// Complete submits a finished shard; ok false means a duplicate lost
// the completion race (harmless — the winner's bytes are identical).
func (cl *Client) Complete(ctx context.Context, res ShardResult) (bool, error) {
	var out okResponse
	if _, err := cl.post(ctx, "/v1/fabric/results", res, &out); err != nil {
		return false, err
	}
	return out.OK, nil
}
