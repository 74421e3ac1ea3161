type reason = Budget.reason

type 'a t = Complete of 'a | Partial of 'a * reason
