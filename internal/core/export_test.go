package core

// Registered reports how many task and thread ids rt still maps back to
// pointers (for the external tests, which drive the runtime through apps).
func Registered(rt *RT) (tasks, threads int) { return len(rt.tasks), len(rt.threads) }
