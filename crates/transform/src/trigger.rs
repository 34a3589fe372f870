//! Activation strategies and change detection.

/// When a boundary component activates itself ("boundary components have
/// the ability to activate themselves according to a user specified
/// strategy"). Periods are in scheduler ticks — the §6.1 groups (radio
/// seconds / chart hours / lyrics days) map to periods 1 / n / m.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Activate every tick.
    EveryTick,
    /// Activate every `n` ticks (tick % n == 0).
    Every(u64),
    /// Never self-activate (interior components).
    Never,
}

impl Trigger {
    /// Does the component fire at `tick`?
    pub fn fires(self, tick: u64) -> bool {
        match self {
            Trigger::EveryTick => true,
            Trigger::Every(n) => n != 0 && tick.is_multiple_of(n),
            Trigger::Never => false,
        }
    }
}

/// Deliver-only-on-change state (§6.2: "only if the status changed between
/// consecutive requests").
#[derive(Debug, Default, Clone)]
pub struct ChangeDetector {
    last: Option<String>,
}

impl ChangeDetector {
    /// Record `payload`; true iff it differs from the previous one.
    pub fn changed(&mut self, payload: &str) -> bool {
        if self.last.as_deref() == Some(payload) {
            false
        } else {
            self.last = Some(payload.to_string());
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_schedules() {
        assert!(Trigger::EveryTick.fires(0));
        assert!(Trigger::EveryTick.fires(7));
        assert!(Trigger::Every(3).fires(0));
        assert!(!Trigger::Every(3).fires(2));
        assert!(Trigger::Every(3).fires(6));
        assert!(!Trigger::Never.fires(0));
        assert!(!Trigger::Every(0).fires(0));
    }

    #[test]
    fn change_detection() {
        let mut d = ChangeDetector::default();
        assert!(d.changed("a"));
        assert!(!d.changed("a"));
        assert!(d.changed("b"));
        assert!(d.changed("a"));
    }
}
