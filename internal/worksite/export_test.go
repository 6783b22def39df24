package worksite

// WireSplit returns a session's receive-side decode split: payloads
// dispatched from a link's sent ring, and payloads handed to the parser.
func WireSplit(se *Session) (hits, parses int) {
	return se.site.wireHits, se.site.wireParses
}
