//! Error type of the metacache crate.

use mc_kmer::Feature;
use mc_taxonomy::TaxonId;

/// Errors raised by database construction, serialization and querying.
#[derive(Debug)]
pub enum MetaCacheError {
    /// Invalid configuration parameters.
    Config(String),
    /// A reference target referenced an unknown taxon.
    UnknownTaxon(TaxonId),
    /// Underlying hash-table error (table full).
    Table(mc_warpcore::TableError),
    /// Taxonomy extension failure (duplicate or reserved taxon id).
    Taxonomy(mc_taxonomy::TaxonomyError),
    /// Device memory exhausted while building a partition.
    Device(mc_gpu_sim::DeviceError),
    /// I/O failure while saving or loading a database.
    Io(std::io::Error),
    /// Malformed database file.
    Format(String),
    /// A bucket longer than the location cap a load of the database
    /// enforces: [`crate::serialize::save`] refuses to write it.
    OverCap {
        /// The feature of the bucket.
        feature: Feature,
        /// Its number of locations.
        locations: usize,
        /// The database's `max_locations_per_feature`.
        cap: usize,
    },
    /// A partition index at or past the number of saved partitions.
    NoSuchPart {
        /// The partition asked for.
        part: usize,
        /// The number of partitions the files hold.
        part_count: usize,
    },
    /// Sequence parsing failure.
    SeqIo(mc_seqio::SeqIoError),
}

impl std::fmt::Display for MetaCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaCacheError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MetaCacheError::UnknownTaxon(id) => write!(f, "unknown taxon {id}"),
            MetaCacheError::Table(e) => write!(f, "hash table error: {e}"),
            MetaCacheError::Taxonomy(e) => write!(f, "taxonomy error: {e}"),
            MetaCacheError::Device(e) => write!(f, "device error: {e}"),
            MetaCacheError::Io(e) => write!(f, "I/O error: {e}"),
            MetaCacheError::Format(msg) => write!(f, "database format error: {msg}"),
            MetaCacheError::OverCap {
                feature,
                locations,
                cap,
            } => write!(
                f,
                "feature {feature} has {locations} locations, over the cap of {cap} a load enforces"
            ),
            MetaCacheError::NoSuchPart { part, part_count } => write!(
                f,
                "no partition {part}: the database was saved in {part_count}"
            ),
            MetaCacheError::SeqIo(e) => write!(f, "sequence I/O error: {e}"),
        }
    }
}

impl std::error::Error for MetaCacheError {}

impl From<mc_warpcore::TableError> for MetaCacheError {
    fn from(e: mc_warpcore::TableError) -> Self {
        MetaCacheError::Table(e)
    }
}

impl From<mc_taxonomy::TaxonomyError> for MetaCacheError {
    fn from(e: mc_taxonomy::TaxonomyError) -> Self {
        MetaCacheError::Taxonomy(e)
    }
}

impl From<mc_gpu_sim::DeviceError> for MetaCacheError {
    fn from(e: mc_gpu_sim::DeviceError) -> Self {
        MetaCacheError::Device(e)
    }
}

impl From<std::io::Error> for MetaCacheError {
    fn from(e: std::io::Error) -> Self {
        MetaCacheError::Io(e)
    }
}

impl From<mc_seqio::SeqIoError> for MetaCacheError {
    fn from(e: mc_seqio::SeqIoError) -> Self {
        MetaCacheError::SeqIo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MetaCacheError::Config("sketch size must be positive".into());
        assert!(e.to_string().contains("sketch size"));
        let e = MetaCacheError::UnknownTaxon(42);
        assert!(e.to_string().contains("42"));
        let e: MetaCacheError = mc_warpcore::TableError::TableFull.into();
        assert!(e.to_string().contains("full"));
    }
}
