package server

// The /v1 endpoint implementations. Handlers return errors; the v1 wrapper
// owns the envelope. Anything written directly to w is a success response.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// KindProgramError classifies a program that assembles but cannot be
// compiled or reference-executed (e.g. traps deterministically in the
// sequential interpreter).
const KindProgramError = "program_error"

// ipc guards the instructions-per-cycle division: a zero-cycle result must
// not put NaN into the response, which json.Encode would reject.
func ipc(instrs, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(instrs) / float64(cycles)
}

// MaxBodyBytes bounds request bodies — shared by the decode path and the
// v1 wrapper's raw-fingerprint slurp so both refuse at the same size, and
// by the fleet router, which forwards at most MaxBodyBytes+1 bytes of a
// body because the decode path never reads further.
const MaxBodyBytes = 4 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return apiErrorf(http.StatusBadRequest, KindBadRequest, "invalid request body: %v", err)
	}
	return nil
}

// parseMachine normalizes the request's machine triple through the shared
// machine.Resolve — the same resolution the fleet router applies before
// fingerprinting, so a request can never hash one way at the router and
// key another way here.
func parseMachine(model string, width int, predictor string) (machine.Desc, error) {
	md, err := machine.Resolve(model, width, predictor)
	if err != nil {
		return machine.Desc{}, apiErrorf(http.StatusBadRequest, KindBadRequest, "%v", err)
	}
	return md, nil
}

// respPredictor is the response echo of the resolved frontend: empty under
// the default perfect predictor so classic response bytes are unchanged.
func respPredictor(md machine.Desc) string {
	if md.Predictor == machine.PredPerfect {
		return ""
	}
	return md.Predictor.String()
}

// prepared resolves a ProgramSpec into compile artifacts: workload kernels
// through the Runner's caches, inline source through the content-hash
// cache.
func (s *Server) prepared(r *http.Request, spec ProgramSpec, md machine.Desc, form bool) (eval.Prepared, error) {
	ctx := r.Context()
	switch {
	case spec.Workload != "" && spec.Source != "":
		return eval.Prepared{}, apiErrorf(http.StatusBadRequest, KindBadRequest,
			"workload and source are mutually exclusive")
	case spec.Workload != "":
		if !form {
			return eval.Prepared{}, apiErrorf(http.StatusBadRequest, KindBadRequest,
				"superblock=false requires an inline source program; workload cells always use the paper pipeline")
		}
		b, ok := workload.ByName(spec.Workload)
		if !ok {
			return eval.Prepared{}, apiErrorf(http.StatusNotFound, KindUnknownWorkload,
				"unknown workload %q", spec.Workload)
		}
		return s.runner.PreparedCtx(ctx, b, md, superblock.Options{})
	case spec.Source != "":
		// Compile artifacts are frontend-independent (the scheduler never
		// consults the predictor), so the source cache keys by the compile
		// view and shares one entry across predictors.
		cmd := md.CompileView()
		key := sourceKey{sum: sha256.Sum256([]byte(spec.Source)), md: cmd, form: form}
		c, err := s.sources.get(ctx, key, func() (*compiled, error) {
			return compileSource(ctx, spec.Source, cmd, form)
		})
		if err != nil {
			return eval.Prepared{}, err
		}
		return eval.Prepared{Prog: c.prog, Index: c.index, Stats: c.stats,
			Ref: c.ref, Mem: c.mem.Clone()}, nil
	default:
		return eval.Prepared{}, apiErrorf(http.StatusBadRequest, KindBadRequest,
			"one of workload or source is required")
	}
}

// compileSource runs the full compile pipeline on inline assembly: parse,
// lay out, reference-interpret for the profile, optionally form
// superblocks, schedule for md. The ctx is span plumbing only — the request
// record, when one is attached, gets compile and schedule stages.
func compileSource(ctx context.Context, src string, md machine.Desc, form bool) (*compiled, error) {
	rd := obs.RecordFrom(ctx)
	rd.Start(obs.StageCompile, obs.ArgSources)
	p, m, err := asm.Parse(src)
	if err != nil {
		rd.End()
		return nil, apiErrorf(http.StatusUnprocessableEntity, KindAssemblyError, "%v", err)
	}
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		rd.End()
		return nil, apiErrorf(http.StatusUnprocessableEntity, KindProgramError,
			"reference interpretation failed: %v", err)
	}
	if form {
		p = superblock.Form(p, ref.Profile, superblock.Options{})
		p.Layout()
		if err := p.Validate(); err != nil {
			rd.End()
			return nil, apiErrorf(http.StatusUnprocessableEntity, KindProgramError,
				"superblock formation: %v", err)
		}
	}
	rd.End()
	rd.Start(obs.StageSchedule, obs.ArgNone)
	sched, stats, err := core.Schedule(p, md)
	rd.End()
	if err != nil {
		return nil, apiErrorf(http.StatusUnprocessableEntity, KindProgramError,
			"schedule: %v", err)
	}
	return &compiled{prog: sched, index: sim.NewProgIndex(sched), stats: stats,
		mem: m, ref: ref}, nil
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) error {
	req := getSchedReq()
	defer putSchedReq(req)
	if err := decodeBody(w, r, req); err != nil {
		return err
	}
	md, err := parseMachine(req.Model, req.Width, req.Predictor)
	if err != nil {
		return err
	}
	form := req.Superblock == nil || *req.Superblock

	// Schedules are a pure function of (program, machine, formation): every
	// repeat is served straight from the response-byte cache.
	key := scheduleKey(req, md, form)
	rd := obs.RecordFrom(r.Context())
	rd.SetFingerprint(key[:])
	rd.SetPredictor(md.Predictor.String())
	rd.Start(obs.StageRespCache, obs.ArgCanon)
	hit := s.resp.Serve(w, key)
	rd.End()
	if hit {
		rd.SetTier(tierCanon)
		return nil
	}
	rd.SetTier(tierFull)

	p, err := s.prepared(r, req.ProgramSpec, md, form)
	if err != nil {
		return err
	}
	instrs := 0
	for _, b := range p.Prog.Blocks {
		instrs += len(b.Instrs)
	}
	resp := getSchedResp()
	defer putSchedResp(resp)
	*resp = ScheduleResponse{
		Model:     md.Model.String(),
		Width:     md.IssueWidth,
		Predictor: respPredictor(md),
		Blocks:    len(p.Prog.Blocks),
		Instrs:    instrs,
		Stats:     p.Stats,
		Listing:   asm.FormatScheduled(p.Prog),
	}
	s.writeJSONCaching(w, r, key, true, resp)
	return nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	req := getSimReq()
	defer putSimReq(req)
	if err := decodeBody(w, r, req); err != nil {
		return err
	}
	md, err := parseMachine(req.Model, req.Width, req.Predictor)
	if err != nil {
		return err
	}

	// A simulate response is a pure function of the normalized request
	// unless the run is perturbed (fault injection) or explicitly forced
	// (Full, the documented escape hatch past every cache): those two
	// bypass the response-byte cache entirely.
	rd := obs.RecordFrom(r.Context())
	rd.SetPredictor(md.Predictor.String())
	rd.SetTier(tierFull)
	cacheable := req.FaultSegment == "" && !req.Full
	var key respKey
	if cacheable {
		key = simulateKey(req, md)
		rd.SetFingerprint(key[:])
		rd.Start(obs.StageRespCache, obs.ArgCanon)
		hit := s.resp.Serve(w, key)
		rd.End()
		if hit {
			rd.SetTier(tierCanon)
			return nil
		}
	}

	// Fast path: a plain workload cell is served from the Runner's verified
	// cell cache — identical concurrent requests coalesce onto one
	// simulation, repeats never simulate at all.
	if req.Workload != "" && req.Source == "" && req.FaultSegment == "" && !req.Full {
		b, ok := workload.ByName(req.Workload)
		if !ok {
			return apiErrorf(http.StatusNotFound, KindUnknownWorkload,
				"unknown workload %q", req.Workload)
		}
		cell, err := s.runner.MeasureCtx(r.Context(), b, md, superblock.Options{})
		if err != nil {
			return err
		}
		rd.SetTier(tierCell)
		resp := getSimResp()
		defer putSimResp(resp)
		*resp = SimulateResponse{
			Model:     md.Model.String(),
			Width:     md.IssueWidth,
			Predictor: respPredictor(md),
			Cycles:    cell.Cycles,
			Instrs:    cell.Instrs,
			IPC:       ipc(cell.Instrs, cell.Cycles),
			Stalls:    cell.Sim.Stalls(),
			Stats:     cell.Sim,
		}
		s.writeJSONCaching(w, r, key, true, resp)
		return nil
	}

	// Full path: a per-request simulation over cached compile artifacts —
	// inline source, fault injection, or an explicit Full run that needs
	// the program output and memory checksum.
	p, err := s.prepared(r, req.ProgramSpec, md, true)
	if err != nil {
		return err
	}
	if req.FaultSegment != "" {
		seg := p.Mem.Segment(req.FaultSegment)
		if seg == nil {
			return apiErrorf(http.StatusBadRequest, KindUnknownSegment,
				"program has no segment %q", req.FaultSegment)
		}
		seg.Present = false
	}
	rd.Start(obs.StageSimulate, obs.ArgNone)
	res, err := sim.Run(p.Prog, md, p.Mem, sim.Options{Index: p.Index})
	rd.End()
	if err != nil {
		if exc, ok := sim.Unhandled(err); ok {
			pc := exc.ReportedPC
			return &APIError{
				Status:  http.StatusUnprocessableEntity,
				Kind:    KindSentinelException,
				Message: fmt.Sprintf("unhandled exception: %v", exc),
				PC:      &pc,
				ExcKind: exc.Kind.String(),
			}
		}
		return err
	}
	if req.FaultSegment == "" {
		// Verification only makes sense against an unfaulted image.
		if res.MemSum != p.Ref.MemSum || fmt.Sprint(res.Out) != fmt.Sprint(p.Ref.Out) {
			return apiErrorf(http.StatusInternalServerError, KindInternal,
				"verification failed: simulated result diverges from the reference interpreter")
		}
	}
	resp := getSimResp()
	defer putSimResp(resp)
	*resp = SimulateResponse{
		Model:      md.Model.String(),
		Width:      md.IssueWidth,
		Predictor:  respPredictor(md),
		Cycles:     res.Cycles,
		Instrs:     res.Instrs,
		IPC:        ipc(res.Instrs, res.Cycles),
		Stalls:     res.Stalls,
		Stats:      res.Stats,
		Out:        res.Out,
		MemSum:     strconv.FormatUint(res.MemSum, 10),
		Exceptions: len(res.Exceptions),
	}
	s.writeJSONCaching(w, r, key, cacheable, resp)
	return nil
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) error {
	var secs eval.Sections
	names := r.URL.Query()["section"]
	if len(names) == 0 {
		secs = eval.AllSections()
	}
	for _, name := range names {
		if !secs.SectionByName(name) {
			return apiErrorf(http.StatusBadRequest, KindBadRequest,
				"unknown section %q (want fig4, fig5, table3, overhead, recovery, buffer, faults, sharing, boosting, prediction, all)", name)
		}
	}
	// A figure render is deterministic per section set; repeats come from
	// the response-byte cache without touching the Runner.
	const figuresContentType = "text/plain; charset=utf-8"
	key := figuresKey(secs)
	rd := obs.RecordFrom(r.Context())
	rd.SetFingerprint(key[:])
	rd.Start(obs.StageRespCache, obs.ArgCanon)
	hit := s.resp.Serve(w, key)
	rd.End()
	if hit {
		rd.SetTier(tierCanon)
		return nil
	}
	rd.SetTier(tierFull)
	// Render into memory first: an error after bytes hit the wire could not
	// change the status line anymore. The render fans out across the
	// Runner's workers, so its pipeline stages land outside this record
	// (the record is single-goroutine; see parallelForCtx).
	rd.Start(obs.StageSimulate, obs.ArgNone)
	var buf bytes.Buffer
	err := eval.RenderSections(r.Context(), secs, s.runner, &buf)
	rd.End()
	if err != nil {
		return err
	}
	rd.Start(obs.StageEncode, obs.ArgNone)
	body := append([]byte(nil), buf.Bytes()...)
	s.resp.Put(key, body, figuresContentType)
	if rk, ok := rawKeyFrom(r.Context()); ok {
		s.resp.Put(rk, body, figuresContentType)
	}
	w.Header().Set("Content-Type", figuresContentType)
	w.Write(buf.Bytes()) //nolint:errcheck
	rd.End()
	return nil
}
