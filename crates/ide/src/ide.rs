//! The headless IDE: menus + dialogs + a devUDF session.

use std::path::Path;

use devudf::{DevUdf, ImportReport, Result, Settings};
use wireproto::Server;

use crate::dialogs::{ExportDialog, ImportDialog};
use crate::menu::{main_menu, MenuItem};

/// A headless PyCharm: everything the paper's demo drives through the GUI,
/// as an API (plus text renderings of each figure).
pub struct HeadlessIde {
    pub dev: DevUdf,
    menu: MenuItem,
}

impl HeadlessIde {
    /// Open a project connected to an in-process server.
    pub fn open_in_proc(
        server: &Server,
        settings: Settings,
        project_root: &Path,
    ) -> Result<HeadlessIde> {
        Ok(HeadlessIde {
            dev: DevUdf::connect_in_proc(server, settings, project_root)?,
            menu: main_menu(),
        })
    }

    /// Figure 1: the main menu rendering.
    pub fn render_main_menu(&self) -> String {
        self.menu.render()
    }

    /// Figure 2: the settings dialog rendering.
    pub fn render_settings_dialog(&self) -> String {
        self.dev.settings.render_dialog()
    }

    /// Figure 3a: build the Import dialog from the live server state.
    pub fn open_import_dialog(&mut self) -> Result<ImportDialog> {
        Ok(ImportDialog::new(self.dev.server_functions()?))
    }

    /// Confirm an Import dialog: import the selection into the project.
    pub fn confirm_import(&mut self, dialog: &ImportDialog) -> Result<ImportReport> {
        let selection = dialog.selection();
        let refs: Vec<&str> = selection.iter().map(|s| s.as_str()).collect();
        if dialog.import_all {
            self.dev.import_all()
        } else {
            self.dev.import(&refs)
        }
    }

    /// Figure 3b: build the Export dialog from the project state.
    pub fn open_export_dialog(&self) -> Result<ExportDialog> {
        Ok(ExportDialog::new(self.dev.project.udf_names()?))
    }

    /// Confirm an Export dialog: push the selection back to the server.
    pub fn confirm_export(&mut self, dialog: &ExportDialog) -> Result<Vec<String>> {
        let selection = dialog.selection();
        let refs: Vec<&str> = selection.iter().map(|s| s.as_str()).collect();
        self.dev.export(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireproto::ServerConfig;

    fn demo_server() -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (1), (2), (3)")
                .unwrap();
            db.execute(
                "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }",
            )
            .unwrap();
            db.execute(
                "CREATE FUNCTION loadnumbers(path STRING) RETURNS TABLE(i INTEGER) LANGUAGE PYTHON { return {'i': [1]} }",
            )
            .unwrap();
        })
    }

    fn temp_ide(server: &Server, tag: &str) -> HeadlessIde {
        let dir = std::env::temp_dir().join(format!(
            "devudf-ide-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut settings = Settings::default();
        settings.debug_query = "SELECT mean_deviation(i) FROM numbers".to_string();
        HeadlessIde::open_in_proc(server, settings, &dir).unwrap()
    }

    #[test]
    fn figure1_menu_contains_udf_development() {
        let server = demo_server();
        let ide = temp_ide(&server, "fig1");
        let menu = ide.render_main_menu();
        assert!(menu.contains("UDF Development"));
        assert!(menu.contains("Import UDFs"));
        assert!(menu.contains("Export UDFs"));
        assert!(menu.contains("Settings"));
        std::fs::remove_dir_all(ide.dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn figure2_settings_dialog_renders() {
        let server = demo_server();
        let ide = temp_ide(&server, "fig2");
        let dialog = ide.render_settings_dialog();
        assert!(dialog.contains("Host:"));
        assert!(dialog.contains("SELECT mean_deviation(i)"));
        std::fs::remove_dir_all(ide.dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn figure3_import_export_flow() {
        let server = demo_server();
        let mut ide = temp_ide(&server, "fig3");
        // Import via dialog.
        let mut import = ide.open_import_dialog().unwrap();
        assert_eq!(import.entries.len(), 2);
        import.toggle("mean_deviation");
        let report = ide.confirm_import(&import).unwrap();
        assert_eq!(report.imported.len(), 1);
        // Export via dialog.
        let mut export = ide.open_export_dialog().unwrap();
        assert_eq!(
            export
                .entries
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["mean_deviation"]
        );
        export.toggle("mean_deviation");
        let exported = ide.confirm_export(&export).unwrap();
        assert_eq!(exported, vec!["mean_deviation"]);
        std::fs::remove_dir_all(ide.dev.project.root()).ok();
        server.shutdown();
    }

    #[test]
    fn import_all_via_dialog() {
        let server = demo_server();
        let mut ide = temp_ide(&server, "all");
        let mut import = ide.open_import_dialog().unwrap();
        import.import_all = true;
        let report = ide.confirm_import(&import).unwrap();
        assert_eq!(report.imported.len(), 2);
        std::fs::remove_dir_all(ide.dev.project.root()).ok();
        server.shutdown();
    }
}
