package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"sideeffect"
	"sideeffect/internal/report"
	"sideeffect/internal/store"
)

// session is one open program handle. Requests against one session
// serialize on its turn while different sessions proceed
// independently.
type session struct {
	// turn is the session's lock, a channel with one slot, so that a
	// request's wait for it also ends with the request's context.
	turn        chan struct{}
	id          string
	sess        *sideeffect.Session
	edits       int
	incremental int
	full        int
}

func newSession(id string, sess *sideeffect.Session) *session {
	return &session{turn: make(chan struct{}, 1), id: id, sess: sess}
}

// lock takes the session's turn, waiting until it is free or ctx is
// done, whichever comes first; a done ctx answers 503 timeout. A free
// turn is taken even when ctx is done.
func (s *session) lock(ctx context.Context) *apiError {
	select {
	case s.turn <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.turn <- struct{}{}:
		return nil
	case <-ctx.Done():
		return errTimeout()
	}
}

func (s *session) unlock() { <-s.turn }

// sessionStore is the bounded table of open sessions.
type sessionStore struct {
	mu       sync.Mutex
	max      int
	next     int
	sessions map[string]*session
}

func newSessionStore(max int) *sessionStore {
	return &sessionStore{max: max, sessions: make(map[string]*session)}
}

// add registers a new session and returns it with its turn held, so
// no other request reaches it before its creator has read its state.
func (st *sessionStore) add(sess *sideeffect.Session) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.sessions) >= st.max {
		return nil, false
	}
	st.next++
	s := newSession(fmt.Sprintf("s-%d", st.next), sess)
	s.turn <- struct{}{}
	st.sessions[s.id] = s
	return s, true
}

func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	return s, ok
}

// remove unlinks the handle. A request that fetched it before the
// removal keeps a readable session; the collector frees the analysis
// once the last such request is done.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.sessions[id]
	delete(st.sessions, id)
	return ok
}

func (st *sessionStore) open() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// export snapshots every open session's source and counters, plus the
// id counter, for checkpointing. It waits for each session's turn with
// no deadline.
func (st *sessionStore) export() ([]store.SessionSnapshot, int) {
	st.mu.Lock()
	handles := make([]*session, 0, len(st.sessions))
	for _, s := range st.sessions {
		handles = append(handles, s)
	}
	next := st.next
	st.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].id < handles[j].id })
	out := make([]store.SessionSnapshot, 0, len(handles))
	for _, s := range handles {
		s.turn <- struct{}{}
		out = append(out, store.SessionSnapshot{
			ID:          s.id,
			Source:      s.sess.Source(),
			Edits:       s.edits,
			Incremental: s.incremental,
			Full:        s.full,
		})
		s.unlock()
	}
	return out, next
}

// advance raises the id counter to at least next, so sessions created
// after a restore never collide with restored ids.
func (st *sessionStore) advance(next int) {
	st.mu.Lock()
	if next > st.next {
		st.next = next
	}
	st.mu.Unlock()
}

// restore re-registers a persisted session under its original id.
// It refuses (returning false) when the table is full or the id is
// already taken.
func (st *sessionStore) restore(snap store.SessionSnapshot, sess *sideeffect.Session) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.sessions) >= st.max {
		return false
	}
	if _, taken := st.sessions[snap.ID]; taken || snap.ID == "" {
		return false
	}
	s := newSession(snap.ID, sess)
	s.edits, s.incremental, s.full = snap.Edits, snap.Incremental, snap.Full
	st.sessions[snap.ID] = s
	return true
}

// sessionState is the session view returned by the creation, status,
// and edit endpoints. The report field is the same shape /analyze
// returns, so clients can diff the two directly.
type sessionState struct {
	ID               string             `json:"id"`
	Hash             string             `json:"hash"`
	Procedures       []string           `json:"procedures"`
	Edits            int                `json:"edits"`
	IncrementalEdits int                `json:"incrementalEdits"`
	FullEdits        int                `json:"fullEdits"`
	Mode             string             `json:"mode,omitempty"`
	Report           *report.JSONReport `json:"report,omitempty"`
}

// state snapshots the session under its lock. mode is "" for reads.
func (s *session) state(mode string, includeReport bool) sessionState {
	a := s.sess.Analysis()
	st := sessionState{
		ID:               s.id,
		Hash:             store.Key("minipl", s.sess.Source()),
		Procedures:       a.Procedures(),
		Edits:            s.edits,
		IncrementalEdits: s.incremental,
		FullEdits:        s.full,
		Mode:             mode,
	}
	if includeReport {
		st.Report = a.JSONReport()
	}
	return st
}

// sessionCreateRequest opens a session over a source text.
type sessionCreateRequest struct {
	Source string `json:"source"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req sessionCreateRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Source == "" {
		return 0, nil, errBadRequest("missing \"source\"")
	}
	sess, err := sideeffect.NewSessionContext(r.Context(), req.Source, s.opts)
	if err != nil {
		return 0, nil, errFrom(err)
	}
	open, ok := s.sessions.add(sess)
	if !ok {
		return 0, nil, errSessionLimit(s.cfg.MaxSessions)
	}
	defer open.unlock()
	return http.StatusCreated, open.state("", true), nil
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	open, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		return 0, nil, errNotFound(r.PathValue("id"))
	}
	if apiErr := open.lock(r.Context()); apiErr != nil {
		return 0, nil, apiErr
	}
	defer open.unlock()
	return http.StatusOK, open.state("", true), nil
}

// sessionEditRequest replaces the session's source text. The server
// decides whether the edit is additive (incremental propagation) or
// structural (full reanalysis) and reports which path it took.
type sessionEditRequest struct {
	Source string `json:"source"`
}

func (s *Server) handleSessionEdit(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req sessionEditRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Source == "" {
		return 0, nil, errBadRequest("missing \"source\"")
	}
	open, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		return 0, nil, errNotFound(r.PathValue("id"))
	}
	if apiErr := open.lock(r.Context()); apiErr != nil {
		return 0, nil, apiErr
	}
	defer open.unlock()
	mode, err := open.sess.EditContext(r.Context(), req.Source)
	if err != nil {
		return 0, nil, errFrom(err)
	}
	open.edits++
	if mode == sideeffect.EditIncremental {
		open.incremental++
	} else {
		open.full++
	}
	s.met.edit(mode.String())
	return http.StatusOK, open.state(mode.String(), true), nil
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		return 0, nil, errNotFound(id)
	}
	return http.StatusOK, map[string]string{"deleted": id}, nil
}
