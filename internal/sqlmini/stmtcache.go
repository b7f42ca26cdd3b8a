package sqlmini

import "sync"

// stmtCacheSize bounds the parsed-statement cache of one DB. It is a
// constant, not an option: the repository and engine issue a small fixed
// set of statement texts, while setup and user SQL may carry literals that
// would otherwise grow the cache without limit.
const stmtCacheSize = 256

// stmtCache maps SQL text to its parsed statement. Cached statements are
// shared by concurrent executions, so execution treats the AST as read-only.
type stmtCache struct {
	mu sync.RWMutex
	m  map[string]Stmt
}

// parse returns the statement for sql, parsing it on a miss. A full cache
// evicts one arbitrary entry (Go's map order) per insertion, so a burst of
// one-off literal statements cannot pin out the hot ones for good. Parse
// errors are not cached.
func (c *stmtCache) parse(sql string) (Stmt, error) {
	c.mu.RLock()
	st, ok := c.m[sql]
	c.mu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[sql]; dup {
		return st, nil
	}
	if c.m == nil {
		c.m = make(map[string]Stmt)
	}
	if len(c.m) >= stmtCacheSize {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[sql] = st
	return st, nil
}
