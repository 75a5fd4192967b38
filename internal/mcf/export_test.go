package mcf

// SetTreeBudget sets the persistent-tree memory budget and returns a func
// that restores the previous one. A budget of 0 forces the shared-tree
// fallback on every instance.
func SetTreeBudget(bytes int) (restore func()) {
	old := persistentTreeBudget
	persistentTreeBudget = bytes
	return func() { persistentTreeBudget = old }
}
