package service

// Config returns the normalized configuration.
func (s *Service) Config() Config { return s.cfg }
