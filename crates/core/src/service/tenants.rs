//! The tenant table: one slot per tenant id ever live, holding the
//! tenant's live record (while it is routable) and its usage meter. An
//! ordered index maps a tenant id to its dense slot, so `submit` does one
//! search and a completion, which carries the slot, does none. Ids are
//! arbitrary `u32`s; nothing is indexed by the raw id.

use crate::billing::TenantUsage;
use crate::tenant::{Tenant, TenantId};
use std::collections::BTreeMap;

/// A tenant's position in [`TenantTable`]: dense, assigned when the
/// tenant first goes live, and never given to another tenant.
pub(super) type Slot = u32;

/// A live (routable) tenant: its record, its serving group, and whether it
/// is parked on that group's tuning MPPDB until a cycle places it.
#[derive(Clone, Copy, PartialEq)]
pub(super) struct LiveTenant {
    pub(super) tenant: Tenant,
    pub(super) group: usize,
    pub(super) parked: bool,
}

/// One tenant id's slot. Slots are never freed: a departed tenant keeps
/// its usage, and a re-registration takes the same slot back.
struct TenantSlot {
    live: Option<LiveTenant>,
    usage: TenantUsage,
}

pub(super) struct TenantTable {
    /// Tenant id -> slot. Ordered, so every listing is in ascending id
    /// order (lint rule L1).
    index: BTreeMap<TenantId, Slot>,
    slots: Vec<TenantSlot>,
    /// Number of slots with a live record.
    live: usize,
}

impl TenantTable {
    /// The table of a fresh deployment, built in one pass: the records are
    /// sorted by id, so the index is bulk-built from sorted keys. Of two
    /// records with the same id the later one wins, as with inserting them
    /// into a map one by one.
    pub(super) fn new(mut records: Vec<LiveTenant>) -> Self {
        records.sort_by_key(|r| r.tenant.id);
        let mut slots: Vec<TenantSlot> = Vec::with_capacity(records.len());
        let mut index: Vec<(TenantId, Slot)> = Vec::with_capacity(records.len());
        for r in records {
            match index.last() {
                Some(&(id, slot)) if id == r.tenant.id => slots[slot as usize].live = Some(r),
                _ => {
                    index.push((r.tenant.id, slots.len() as Slot));
                    slots.push(TenantSlot {
                        live: Some(r),
                        usage: TenantUsage::default(),
                    });
                }
            }
        }
        TenantTable {
            index: index.into_iter().collect(),
            live: slots.len(),
            slots,
        }
    }

    /// The slot of a tenant that has ever been live.
    pub(super) fn slot(&self, id: TenantId) -> Option<Slot> {
        self.index.get(&id).copied()
    }

    /// The live record in `slot`, if its tenant is live.
    pub(super) fn live_at(&self, slot: Slot) -> Option<&LiveTenant> {
        self.slots[slot as usize].live.as_ref()
    }

    /// The live record of `id`, if it is live.
    pub(super) fn get(&self, id: TenantId) -> Option<&LiveTenant> {
        self.live_at(self.slot(id)?)
    }

    /// The live record of `id` for update, if it is live.
    pub(super) fn get_mut(&mut self, id: TenantId) -> Option<&mut LiveTenant> {
        let slot = self.slot(id)?;
        self.slots[slot as usize].live.as_mut()
    }

    /// Whether `id` is live.
    pub(super) fn contains(&self, id: TenantId) -> bool {
        self.get(id).is_some()
    }

    /// Makes `record` the live record of its tenant, taking the tenant's
    /// old slot back or appending a new one.
    pub(super) fn insert(&mut self, record: LiveTenant) {
        let next = self.slots.len() as Slot;
        let slot = *self.index.entry(record.tenant.id).or_insert(next);
        if slot == next {
            self.slots.push(TenantSlot {
                live: None,
                usage: TenantUsage::default(),
            });
        }
        if self.slots[slot as usize].live.replace(record).is_none() {
            self.live += 1;
        }
    }

    /// Takes `id`'s live record; its slot and usage stay.
    pub(super) fn remove(&mut self, id: TenantId) -> Option<LiveTenant> {
        let slot = self.slot(id)?;
        let record = self.slots[slot as usize].live.take()?;
        self.live -= 1;
        Some(record)
    }

    /// Number of live tenants.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Live tenants' records, ascending by id.
    pub(super) fn live(&self) -> impl Iterator<Item = &LiveTenant> + '_ {
        self.index.values().filter_map(|&slot| self.live_at(slot))
    }

    /// The usage meter in `slot`.
    pub(super) fn usage_mut(&mut self, slot: Slot) -> &mut TenantUsage {
        &mut self.slots[slot as usize].usage
    }

    /// The usage of every tenant that ever ran a query, live or departed,
    /// ascending by id.
    pub(super) fn metered(&self) -> impl Iterator<Item = (TenantId, &TenantUsage)> + '_ {
        self.index.iter().filter_map(|(&id, &slot)| {
            let usage = &self.slots[slot as usize].usage;
            usage.metered().then_some((id, usage))
        })
    }

    /// The live record and usage of `id`, if it is live.
    pub(super) fn live_usage(&self, id: TenantId) -> Option<(&LiveTenant, &TenantUsage)> {
        let slot = &self.slots[self.slot(id)? as usize];
        Some((slot.live.as_ref()?, &slot.usage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, group: usize) -> LiveTenant {
        LiveTenant {
            tenant: Tenant::new(TenantId(id), 2, 100.0),
            group,
            parked: false,
        }
    }

    #[test]
    fn a_repeated_deploy_id_keeps_the_later_record() {
        let t = TenantTable::new(vec![record(9, 0), record(u32::MAX, 0), record(9, 1)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(TenantId(9)).map(|l| l.group), Some(1));
        let ids: Vec<TenantId> = t.live().map(|l| l.tenant.id).collect();
        assert_eq!(ids, [TenantId(9), TenantId(u32::MAX)]);
    }

    #[test]
    fn a_departed_tenant_keeps_its_slot_and_usage() {
        let mut t = TenantTable::new(vec![record(100_000_000, 0)]);
        let slot = t.slot(TenantId(100_000_000)).unwrap();
        t.usage_mut(slot).on_query_start(0);
        assert!(t.remove(TenantId(100_000_000)).is_some());
        assert!(t.remove(TenantId(100_000_000)).is_none());
        assert_eq!(t.len(), 0);
        assert!(t.live_at(slot).is_none());
        // The query in flight still settles on the slot it carries.
        t.usage_mut(slot)
            .on_query_finish(TenantId(100_000_000), 40)
            .unwrap();
        t.insert(record(0, 0));
        t.insert(record(100_000_000, 2));
        assert_eq!(t.slot(TenantId(100_000_000)), Some(slot));
        assert_eq!(t.len(), 2);
        let metered: Vec<(TenantId, u64)> =
            t.metered().map(|(id, u)| (id, u.active_ms())).collect();
        assert_eq!(metered, [(TenantId(100_000_000), 40)]);
    }
}
