package electd

// LatePropagates reports how many propagates were refused because their
// election had already been removed (see RemoveElection) — stragglers of a
// finished election's last broadcasts, not load the server turned away. A
// deployed server exports the count as electd_late_propagates_total.
func (s *Server) LatePropagates() int64 { return s.late.Load() }
